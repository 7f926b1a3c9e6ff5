import numpy as np
import pytest
from scipy.io import mmread

from pim import pointcloud
from pim.cli import _csv_rows, main
from pim.solve import SolverError


@pytest.fixture()
def interval_csv(tmp_path):
    path = tmp_path / "interval.csv"
    assert main(["generate", "--shape", "interval", "--n", "101",
                 "--out", str(path)]) == 0
    return str(path)


def read_solution(path):
    rows = open(path).read().strip().splitlines()
    body = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    return rows[0], body


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_loadable_cloud(tmp_path, capsys):
    out = tmp_path / "disk.csv"
    rc = main(["generate", "--shape", "disk", "--n", "300", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "boundary" in msg and "sum(V)" in msg
    cloud = pointcloud.load(out)
    assert cloud.ambient_dim == 2
    assert cloud.volume_weights.sum() == pytest.approx(np.pi, rel=0.02)


def test_generate_seed_determinism(tmp_path):
    args = ["generate", "--shape", "disk", "--n", "200", "--jitter", "0.25",
            "--out"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(args + [str(a), "--seed", "5"]) == 0
    assert main(args + [str(b), "--seed", "5"]) == 0
    assert main(args + [str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_rejects_bad_spec(tmp_path, capsys):
    rc = main(["generate", "--shape", "disk", "--n", "-5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("jitter", ["5", "0.5", "-0.1"])
def test_generate_rejects_jitter_out_of_range(tmp_path, capsys, jitter):
    out = tmp_path / "x.csv"
    rc = main(["generate", "--shape", "interval", "--n", "5", "--jitter", jitter,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "jitter" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_out_is_usage_error(capsys):
    rc = main(["generate", "--shape", "disk", "--n", "10"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_builtin_case(tmp_path, interval_csv, capsys):
    out = tmp_path / "solution.csv"
    report = tmp_path / "run.txt"
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--t", "0.004", "--beta", "0.05",
               "--out", str(out), "--report", str(report)])
    assert rc == 0
    header, body = read_solution(out)
    assert header == "x1,u"
    assert body.shape == (101, 2)
    # interior values approximate sin(pi x); crude sanity, not a convergence claim
    mid = body[50]
    assert abs(mid[1] - np.sin(np.pi * mid[0])) < 0.2
    text = report.read_text()
    assert "residual = " in text and "max_abs_error_vs_exact" in text
    assert "case = interval_sine" in text
    assert "solved n=101" in capsys.readouterr().out


def test_solve_constant_identity(tmp_path, interval_csv):
    # zero source + constant boundary data must return that constant
    out = tmp_path / "const.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--b-const", "1", "--t", "0.004", "--beta", "0.1",
               "--out", str(out)])
    assert rc == 0
    _, body = read_solution(out)
    assert np.max(np.abs(body[:, 1] - 1.0)) < 1e-9
    # default report path appears next to the solution
    assert (tmp_path / "const.csv.report.txt").exists()


def test_solve_explicit_files(tmp_path, interval_csv):
    fsrc = tmp_path / "f.csv"
    fsrc.write_text("".join(f"{v}\n" for v in np.zeros(101)))
    bsrc = tmp_path / "b.csv"
    bsrc.write_text("2.0\n2.0\n")
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-file", str(fsrc),
               "--b-file", str(bsrc), "--t", "0.004", "--beta", "0.1",
               "--out", str(out)])
    assert rc == 0
    _, body = read_solution(out)
    assert np.max(np.abs(body[:, 1] - 2.0)) < 1e-9
    text = (tmp_path / "sol.csv.report.txt").read_text()
    assert "case = (explicit data)" in text


def test_solve_corrupt_cloud(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not\na,cloud,file\n")
    rc = main(["solve", "--cloud", str(bad), "--f-const", "0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "cannot read cloud" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_solve_case_and_data_conflict(tmp_path, interval_csv, capsys):
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--f-const", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_solve_t_without_beta(tmp_path, interval_csv, capsys):
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--t", "0.01", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_solve_rejects_nonpositive_t(tmp_path, interval_csv, capsys):
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--t", "-0.01", "--beta", "0.1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "positive" in capsys.readouterr().err


def test_solve_value_length_mismatch(tmp_path, interval_csv, capsys):
    fsrc = tmp_path / "f.csv"
    fsrc.write_text("0.0\n0.0\n")  # 2 values for 101 points
    rc = main(["solve", "--cloud", interval_csv, "--f-file", str(fsrc),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "expected 101" in capsys.readouterr().err


def test_solve_guardrail_warning_on_stderr(tmp_path, interval_csv, capsys):
    out = tmp_path / "warned.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--b-const", "0", "--t", "1e-4", "--beta", "0.5",
               "--out", str(out)])
    assert rc == 0
    assert "guardrail" in capsys.readouterr().err
    text = (tmp_path / "warned.csv.report.txt").read_text()
    assert "guardrail_flags = " in text
    assert "none" not in [ln.split(" = ")[1] for ln in text.strip().splitlines()
                          if ln.startswith("guardrail_flags")]


def test_solve_matrix_dump(tmp_path, interval_csv):
    mtx = tmp_path / "system.mtx"
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--t", "0.004", "--beta", "0.1",
               "--out", str(tmp_path / "s.csv"), "--matrix-out", str(mtx)])
    assert rc == 0
    mat = mmread(mtx)
    assert mat.shape == (101, 101)


def test_solve_alternate_profile(tmp_path, interval_csv):
    out = tmp_path / "tg.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--b-const", "3", "--t", "0.004", "--beta", "0.1",
               "--profile", "truncated_gaussian", "--out", str(out)])
    assert rc == 0
    _, body = read_solution(out)
    assert np.max(np.abs(body[:, 1] - 3.0)) < 1e-9


def per_cell_csv(table):
    return "".join(",".join(format(float(c), ".17g") for c in row) + "\n"
                   for row in table)


def test_csv_rows_match_per_cell_rendering(rng):
    special = np.array([[-0.0, 0.0, 5e-324, 1e-300],
                        [1.7976931348623157e308, -1e300, 0.1, 1.0 / 3.0],
                        [np.inf, -np.inf, np.nan, 123456789.0],
                        [2.0 ** -1022, -2.2250738585072014e-308, 1e16, 1e17]])
    scaled = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    for table in (special, scaled, special[:, :1], np.empty((0, 3))):
        assert _csv_rows(table) == per_cell_csv(table)
    assert _csv_rows(special).startswith("-0,0,4.9406564584124654e-324,1e-300\n")


@pytest.mark.parametrize("b_const", ["1e150", "1e-300", "-2.5"])
def test_solve_csv_is_per_cell_rendering(tmp_path, b_const):
    # an interval lifted into the plane, its second coordinate -0.0, 0.0,
    # subnormal or tiny, solved for huge, tiny and negative constant solutions
    line = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 101))
    lift = np.resize([-0.0, 0.0, 5e-324, 1e-300], line.n)
    cloud = pointcloud.PointCloud(
        points=np.column_stack([line.points[:, 0], lift]), intrinsic_dim=1,
        boundary_indices=line.boundary_indices,
        volume_weights=line.volume_weights, area_weights=line.area_weights)
    src, out = tmp_path / "lifted.csv", tmp_path / "sol.csv"
    pointcloud.save(cloud, src)
    rc = main(["solve", "--cloud", str(src), "--f-const", "0", "--b-const", b_const,
               "--t", "0.004", "--beta", "0.1", "--out", str(out)])
    assert rc == 0
    header, *rows = out.read_text().splitlines(keepends=True)
    assert header == "x1,x2,u\n"
    u = np.array([float(r.rsplit(",", 1)[1]) for r in rows])
    assert np.allclose(u, float(b_const), rtol=1e-9, atol=0.0)
    assert "".join(rows) == per_cell_csv(np.column_stack([cloud.points, u]))
    assert rows[0].startswith("0,-0,") and rows[2].startswith(
        "0.02,4.9406564584124654e-324,")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_runs_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--case", "interval_sine", "--levels", "51,101",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("level,n,h,t,beta")
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "sweep complete: 2 level(s)" in stdout


def test_sweep_seed_determinism(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--case", "interval_sine", "--levels", "51,101",
                     "--seed", "3", "--out", str(out)]) == 0
        outs.append(out.read_text().strip().splitlines())
    for r1, r2 in zip(outs[0], outs[1]):
        # identical except the timing column
        assert r1.split(",")[:9] == r2.split(",")[:9]


def test_sweep_rejects_steep_coupling_exponent(tmp_path, capsys):
    rc = main(["sweep", "--case", "interval_sine", "--levels", "51",
               "--gamma-t", "0.7", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "2/3" in err and "h/t^(3/2)" in err


def test_sweep_unknown_case(tmp_path, capsys):
    rc = main(["sweep", "--case", "wave_equation", "--levels", "51",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "interval_sine" in capsys.readouterr().err


def test_sweep_bad_levels(tmp_path, capsys):
    rc = main(["sweep", "--case", "interval_sine", "--levels", "abc",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("levels", ["1", "-3"])
def test_sweep_rejects_levels_below_two(tmp_path, capsys, levels):
    rc = main(["sweep", "--case", "disk_paraboloid", "--levels", levels,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "Traceback" not in err


@pytest.mark.parametrize("restart", ["0", "-2"])
def test_zero_restart_exits_2(tmp_path, capsys, interval_csv, restart):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"solver.restart = {restart}\n")
    out = tmp_path / "u.csv"
    mtx = tmp_path / "m.mtx"
    rc = main(["--config", str(cfg), "solve", "--cloud", interval_csv,
               "--f-const", "1", "--dense-cutoff", "1", "--matrix-out", str(mtx),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "restart" in err and "Traceback" not in err
    # rejected before assembly: no matrix dump either
    assert not out.exists() and not mtx.exists()


@pytest.mark.parametrize("line", ["solver.restart = 0", "kernel.profile = bogus",
                                  "reference.factor = 0"])
def test_sweep_bad_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), "sweep", "--case", "interval_sine",
               "--levels", "51", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "Traceback" not in err


MISTYPED = ["solver.tol = abc", "coupling.c_t = x", "guardrails.r0_penalty = x",
            "assembly.dense_cutoff = abc"]


@pytest.mark.parametrize("command,line",
                         [(c, line) for c in ("solve", "sweep") for line in MISTYPED]
                         + [("sweep", "reference.factor = 2.5")])
def test_mistyped_config_value_exits_2(tmp_path, capsys, interval_csv, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    if command == "solve":
        argv = ["solve", "--cloud", interval_csv, "--f-const", "1"]
    else:
        argv = ["sweep", "--case", "interval_sine", "--levels", "51"]
    rc = main(["--config", str(cfg)] + argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and line.split()[0] in err and "Traceback" not in err
    assert not out.exists()


OUT_OF_RANGE = [("generate", "solver.restart = 0"), ("generate", "coupling.gamma_t = 0.9"),
                ("generate", "guardrails.r0_density = 0"), ("generate", "kernel.profile = bogus"),
                ("solve", "coupling.gamma_t = 0.9"), ("solve", "coupling.c_beta = -1")]


@pytest.mark.parametrize("command,line", OUT_OF_RANGE)
def test_out_of_range_config_value_exits_2_on_every_command(tmp_path, capsys, interval_csv,
                                                          command, line):
    # the merged config is checked once, before any command runs: a solve
    # with explicit --t/--beta never uses the coupling, generate no setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    if command == "solve":
        argv = ["solve", "--cloud", interval_csv, "--case", "interval_sine",
                "--t", "0.001", "--beta", "0.05"]
    else:
        argv = ["generate", "--shape", "interval", "--n", "11"]
    rc = main(["--config", str(cfg)] + argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    field = line.split()[0].partition(".")[2]
    assert "pim: error:" in err and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("aborts", [False, True])
def test_sweep_prints_guardrail_flags_as_warning_lines(tmp_path, capsys, monkeypatch,
                                                      aborts):
    # the format pim solve uses, with no Python warning source line, for
    # every level that checked its guardrails, the one that failed included
    import pim.analysis as analysis
    if aborts:
        real = analysis.solve_case_on_cloud
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SolverError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve_case_on_cloud", flaky)
    rc = main(["sweep", "--case", "disk_paraboloid", "--levels", "200,400",
               "--out", str(tmp_path / "s.csv")])
    assert rc == (1 if aborts else 0)
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["warning: stability guardrail exceeded: h/t^1.5=23.5>20",
                       "warning: stability guardrail exceeded: h/t^1.5=22.5>20"]
    assert len(err) == (3 if aborts else 2)
    assert not aborts or err[2].startswith("pim: error: sweep aborted after 1 level(s)")


# ---------------------------------------------------------------------------
# config file plumbing and oracle checks
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path, interval_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.profile = truncated_gaussian\nsolver.tol = 1e-9\n")
    out = tmp_path / "cfg.csv"
    rc = main(["--config", str(cfg), "solve", "--cloud", interval_csv,
               "--f-const", "0", "--b-const", "1", "--t", "0.004",
               "--beta", "0.1", "--out", str(out)])
    assert rc == 0
    text = (tmp_path / "cfg.csv.report.txt").read_text()
    assert "profile = truncated_gaussian" in text
    # an explicit flag beats the file
    rc = main(["--config", str(cfg), "solve", "--cloud", interval_csv,
               "--f-const", "0", "--b-const", "1", "--t", "0.004",
               "--beta", "0.1", "--profile", "cubic", "--out", str(out)])
    assert rc == 0
    assert "profile = cubic" in (tmp_path / "cfg.csv.report.txt").read_text()


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.tool = 1e-9\n")
    rc = main(["--config", str(cfg), "oracle-check"])
    assert rc == 2
    assert "solver.tool" in capsys.readouterr().err


def test_oracle_check_all_pass(capsys):
    rc = main(["oracle-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failure(s) out of 7 checks" in out
    assert out.count("  pass  ") == 7


@pytest.mark.parametrize("line,named", [("oracle.fineness = 0", "oracle.fineness"),
                                        ("kernel.profile = bogus", "bogus")])
def test_oracle_check_bad_config_value_exits_2(tmp_path, capsys, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), "oracle-check"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_rejects_nonfinite_source(tmp_path, value, capsys):
    # a NaN source once produced an all-NaN solution, residual = nan, exit 0
    cloud = tmp_path / "disk.csv"
    assert main(["generate", "--shape", "disk", "--n", "300",
                 "--out", str(cloud)]) == 0
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--cloud", str(cloud), f"--f-const={value}",
               "--dense-cutoff", "1000", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_nonfinite_boundary_data(tmp_path, interval_csv, capsys):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "1",
               "--b-const", "nan", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


NONFINITE = [
    # (command, config line, extra flags, pieces the error must name)
    ("solve", None, ["--tol", "nan", "--dense-cutoff", "1"], ("tol", "nan")),
    ("solve", None, ["--t", "nan", "--beta", "0.1"], ("t=nan",)),
    ("solve", None, ["--t", "0.01", "--beta", "nan"], ("beta=nan",)),
    ("solve", None, ["--t", "inf", "--beta", "0.1"], ("t=inf",)),
    ("solve", "coupling.c_beta = nan", [], ("c_beta=nan",)),
    ("sweep", "coupling.c_t = nan", [], ("c_t=nan",)),
    ("sweep", None, ["--c-t", "nan"], ("c_t=nan",)),
    ("sweep", None, ["--c-beta", "nan"], ("c_beta=nan",)),
]


@pytest.mark.parametrize("command,line,flags,named", NONFINITE,
                         ids=[" ".join(c[2]) or c[1] for c in NONFINITE])
def test_nonfinite_numeric_input_exits_2(tmp_path, capsys, interval_csv,
                                         command, line, flags, named):
    # each once ran GMRES to its cap, failed inside assembly with a NumPy
    # message naming no input, or exited 1 as a solver failure
    argv = []
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = ["--config", str(cfg)]
    if command == "solve":
        argv += ["solve", "--cloud", interval_csv, "--f-const", "1"]
    else:
        argv += ["sweep", "--case", "interval_sine", "--levels", "101"]
    out = tmp_path / "x.csv"
    rc = main(argv + flags + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "Traceback" not in err
    assert all(piece in err for piece in named), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("key", ["r0_penalty", "r0_density"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
def test_bad_guardrail_ceiling_exits_2(tmp_path, capsys, interval_csv, command, key, value):
    # a NaN ceiling once switched its guardrail off without a word, and a
    # negative one flagged every run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"guardrails.{key} = {value}\n")
    if command == "solve":
        argv = ["solve", "--cloud", interval_csv, "--case", "interval_sine",
                "--t", "0.0001", "--beta", "0.1"]
    else:
        argv = ["sweep", "--case", "interval_sine", "--levels", "101"]
    out = tmp_path / "x.csv"
    rc = main(["--config", str(cfg)] + argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "Traceback" not in err and "warning" not in err
    assert f"{key}={float(value)}" in err, err
    assert not out.exists()


def test_solve_case_dimension_mismatch(tmp_path, capsys):
    # a 3-d case on a 2-d cloud once died with an IndexError traceback
    cloud = tmp_path / "disk.csv"
    assert main(["generate", "--shape", "disk", "--n", "200",
                 "--out", str(cloud)]) == 0
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--cloud", str(cloud), "--case", "cap_linear",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cap_linear" in err and "3-d" in err and "2-d" in err
    assert not out.exists()
    rc = main(["solve", "--cloud", str(cloud), "--case", "interval_sine",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_solve_rejects_boundary_free_cloud(tmp_path, capsys):
    # once: dense LU failed at its pivot check (exit 1), and with CSR storage
    # GMRES ran 3 500 iterations before exiting 1
    disk = pointcloud.generate(pointcloud.ManifoldSpec.disk(300))
    cloud = tmp_path / "no_boundary.csv"
    pointcloud.save(pointcloud.PointCloud(
        points=disk.points, intrinsic_dim=2,
        boundary_indices=np.array([], dtype=int),
        volume_weights=disk.volume_weights, area_weights=np.array([])), cloud)
    out = tmp_path / "sol.csv"
    for cutoff in ("1000", "100"):
        rc = main(["solve", "--cloud", str(cloud), "--f-const", "1",
                   "--dense-cutoff", cutoff, "--out", str(out)])
        assert rc == 2
        assert "no boundary points" in capsys.readouterr().err
        assert not out.exists()


def test_solve_rejects_isolated_point(tmp_path, capsys):
    pts = np.concatenate([np.linspace(0.0, 0.5, 51), [0.9]])[:, None]
    cloud = tmp_path / "isolated.csv"
    pointcloud.save(pointcloud.PointCloud(
        points=pts, intrinsic_dim=1, boundary_indices=np.array([0, 50]),
        volume_weights=np.full(52, 0.01), area_weights=np.ones(2)), cloud)
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--cloud", str(cloud), "--f-const", "1", "--t", "0.0004",
               "--beta", "0.01", "--out", str(out)])
    assert rc == 2
    assert "first index 51" in capsys.readouterr().err
    assert not out.exists()
