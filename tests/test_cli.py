import dataclasses
import math
import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread

from pim import analysis, assembly, pointcloud
from pim.cli import main
from pim.pointcloud import _csv_rows
from pim.solve import SolverError


@pytest.fixture()
def interval_csv(tmp_path):
    path = tmp_path / "interval.csv"
    assert main(["generate", "--shape", "interval", "--n", "101",
                 "--out", str(path)]) == 0
    return str(path)


def read_solution(path):
    with open(path) as fh:
        rows = fh.read().strip().splitlines()
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
    a, b, c, d, e = (tmp_path / f"{name}.csv" for name in "abcde")
    assert main(args + [str(a), "--seed", "5"]) == 0
    assert main(args + [str(b), "--seed", "5"]) == 0
    assert main(args + [str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    # a jittered run without --seed draws from seed 0
    assert main(args + [str(d)]) == 0
    assert main(args + [str(e), "--seed", "0"]) == 0
    assert d.read_bytes() == e.read_bytes()


@pytest.mark.parametrize("jitter", [[], ["--jitter", "0"]], ids=["no jitter", "jitter 0"])
def test_generate_rejects_seed_without_jitter(tmp_path, capsys, jitter):
    # the seed draws only the jitter: it once wrote the seed-0 bytes, exit 0
    out = tmp_path / "d7.csv"
    rc = main(["generate", "--shape", "disk", "--n", "300", *jitter, "--seed", "7",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "pim: error: --seed does not apply without --jitter\n"
    assert not out.exists()


def test_generate_rejects_negative_seed(tmp_path, capsys):
    # numpy's default_rng once rejected it with a message naming neither
    out = tmp_path / "neg.csv"
    rc = main(["generate", "--shape", "disk", "--n", "51", "--jitter", "0.25", "--seed", "-5",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "pim: error: --seed must be at least 0, got -5\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flags, spec", [
    (["--shape", "interval", "--a", "-1", "--b", "2"],
     pointcloud.ManifoldSpec.interval(-1.0, 2.0, 60)),
    (["--shape", "rectangle", "--wx", "2", "--wy", "0.5"],
     pointcloud.ManifoldSpec.rectangle(2.0, 0.5, 60)),
    (["--shape", "disk"], pointcloud.ManifoldSpec.disk(60)),
    (["--shape", "spherical_cap", "--z0", "0.2"],
     pointcloud.ManifoldSpec.spherical_cap(0.2, 60)),
], ids=pointcloud.SHAPES)
def test_generate_shape_flags_build_the_library_spec(tmp_path, flags, spec):
    out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["generate", *flags, "--n", "60", "--jitter", "0.2", "--seed", "3",
                 "--out", str(out)]) == 0
    pointcloud.save(pointcloud.generate(spec, seed=3, jitter=0.2), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("flags, spec", [
    (["--shape", "interval"], pointcloud.ManifoldSpec.interval(0.0, 1.0, 60)),
    (["--shape", "rectangle"], pointcloud.ManifoldSpec.rectangle(1.0, 1.0, 60)),
    (["--shape", "disk"], pointcloud.ManifoldSpec.disk(60)),
    (["--shape", "spherical_cap"], pointcloud.ManifoldSpec.spherical_cap(0.5, 60)),
], ids=pointcloud.SHAPES)
def test_generate_shape_defaults(tmp_path, flags, spec):
    out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["generate", *flags, "--n", "60", "--out", str(out)]) == 0
    pointcloud.save(pointcloud.generate(spec), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("shape, flags, named", [
    ("disk", ["--a", "2", "--b", "1", "--wx", "-1", "--z0", "3"], "--a"),
    ("interval", ["--z0", "0.5"], "--z0"),
    ("rectangle", ["--a", "0"], "--a"),
    ("spherical_cap", ["--wy", "1"], "--wy"),
])
def test_generate_rejects_flags_of_another_shape(tmp_path, capsys, shape, flags, named):
    # these flags were once ignored: the plain shape was written, exit 0
    out = tmp_path / "c.csv"
    rc = main(["generate", "--shape", shape, "--n", "51", *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"pim: error: {named} does not apply to --shape {shape}\n"
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


@pytest.mark.parametrize("n,preconditioner", [(101, None), (801, "jacobi"), (4096, "two-level")])
def test_solve_report_names_the_preconditioner(tmp_path, n, preconditioner):
    # one added line on iterative solves; a direct solve's report has none
    cloud = tmp_path / "cloud.csv"
    assert main(["generate", "--shape", "interval", "--n", str(n), "--out", str(cloud)]) == 0
    assert main(["solve", "--cloud", str(cloud), "--case", "interval_sine",
                 "--out", str(tmp_path / "u.csv")]) == 0
    lines = (tmp_path / "u.csv.report.txt").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("preconditioner")] == (
        [] if preconditioner is None else [f"preconditioner = {preconditioner}"])
    assert ("method = dense-lu" in lines) == (preconditioner is None)


def test_solve_a_sheet_spread_over_twelve_coordinates(tmp_path):
    # a 70 x 70 grid of the unit square, scaled by 4 and turned into 12-d
    # space, its rim flagged: at this t the two-level's cells once keyed a
    # grid larger than int64 and the solve exited 2 with "invalid dims"
    g = np.linspace(0.0, 1.0, 70)
    uv = np.column_stack([np.repeat(g, 70), np.tile(g, 70)])
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 12)))[0]
    h = 4 / 69
    rim = np.flatnonzero(((uv == 0.0) | (uv == 1.0)).any(axis=1))
    cloud = tmp_path / "sheet.csv"
    pointcloud.save(pointcloud.PointCloud(uv @ (4 * q[:2]), 2, rim, np.full(4900, h * h),
                                          np.full(rim.size, h)), cloud)
    out = tmp_path / "u.csv"
    assert main(["solve", "--cloud", str(cloud), "--f-const", "1", "--b-const", "0",
                 "--t", "0.002", "--beta", "0.02", "--out", str(out)]) == 0
    assert "preconditioner = two-level" in (tmp_path / "u.csv.report.txt").read_text()
    assert np.isfinite(read_solution(out)[1]).all()


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


@pytest.mark.parametrize("cloud_args,case_name,method", [
    (["--shape", "interval", "--n", "101"], "interval_sine", "method = dense-lu"),
    (["--shape", "spherical_cap", "--n", "2000", "--jitter", "0.25"], "cap_linear",
     "preconditioner = jacobi"),
], ids=["interval", "cap"])
def test_solve_explicit_data_matches_the_case(tmp_path, cloud_args, case_name, method):
    # the case's f and b written at %.17g read back to the same bits, so
    # --f-file/--b-file must write the solution bytes --case writes
    cloud = tmp_path / "cloud.csv"
    assert main(["generate", *cloud_args, "--out", str(cloud)]) == 0
    loaded, case = pointcloud.load(cloud), analysis.get_case(case_name)
    fsrc, bsrc = tmp_path / "f.txt", tmp_path / "b.txt"
    np.savetxt(fsrc, case.f(loaded.points), fmt="%.17g")
    np.savetxt(bsrc, case.b(loaded.boundary_points), fmt="%.17g")
    by_case, by_files = tmp_path / "case_u.csv", tmp_path / "files_u.csv"
    assert main(["solve", "--cloud", str(cloud), "--case", case_name, "--out", str(by_case)]) == 0
    assert main(["solve", "--cloud", str(cloud), "--f-file", str(fsrc), "--b-file", str(bsrc),
                 "--out", str(by_files)]) == 0
    assert method in (tmp_path / "files_u.csv.report.txt").read_text().splitlines()
    assert by_files.read_bytes() == by_case.read_bytes()


def test_solve_corrupt_cloud(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not\na,cloud,file\n")
    rc = main(["solve", "--cloud", str(bad), "--f-const", "0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read cloud" in err and str(bad) in err
    assert not (tmp_path / "x.csv").exists()


def test_solve_case_and_data_conflict(tmp_path, interval_csv, capsys):
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--f-const", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["f", "b"])
def test_solve_rejects_file_and_constant_together(tmp_path, interval_csv, capsys, source):
    # the constant was once silently ignored in favour of the file
    values = tmp_path / "values.csv"
    values.write_text("0.0\n" * (101 if source == "f" else 2))
    out = tmp_path / "x.csv"
    source_flags = [] if source == "f" else ["--f-const", "0"]
    rc = main(["solve", "--cloud", interval_csv, *source_flags,
               f"--{source}-file", str(values), f"--{source}-const", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"pim: error: give either --{source}-file or --{source}-const, not both\n"
    assert not out.exists()


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


@pytest.mark.parametrize("t, rc, message", [
    ("1e-300", 2, "have no other point within the support radius"),
    ("1e300", 1, "pim: error: solver failed: "),
])
def test_solve_at_an_extreme_t_exits_with_one_message(tmp_path, interval_csv, capsys,
                                                      t, rc, message):
    # t ** 1.5 underflows to 0 or overflows in the density guardrail, which
    # once raised instead of flagging the ratio
    out = tmp_path / "u.csv"
    assert main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
                 "--t", t, "--beta", "1", "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert [ln for ln in err.splitlines() if ln.startswith("pim: error:")] == \
        [ln for ln in err.splitlines() if message in ln]
    assert not out.exists()


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


@pytest.mark.parametrize("action", ["error", "ignore", "default"])
def test_solve_prints_guardrail_lines_under_any_warning_filter(tmp_path, interval_csv,
                                                               capsys, action):
    # main installs the line format and the "always" filter, then restores
    # the caller's filters and showwarning
    argv = ["solve", "--cloud", interval_csv, "--f-const", "0", "--t", "1e-4",
            "--beta", "0.5", "--out", str(tmp_path / "u.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        before = (list(warnings.filters), warnings.showwarning)
        assert main(argv) == 0 and main(argv) == 0
        assert (warnings.filters, warnings.showwarning) == before
    assert capsys.readouterr().err.splitlines() == \
        ["warning: stability guardrail exceeded: h/t^1.5=1e+04>20"] * 2


def test_solve_solver_failure_exits_1(tmp_path, interval_csv, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(analysis, "solve", failing)
    out = tmp_path / "u.csv"
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "pim: error: solver failed: synthetic failure\n"
    assert not out.exists()


def test_solve_matrix_dump(tmp_path, interval_csv):
    mtx = tmp_path / "system.mtx"
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--t", "0.004", "--beta", "0.1",
               "--out", str(tmp_path / "s.csv"), "--matrix-out", str(mtx)])
    assert rc == 0
    mat = mmread(mtx)
    assert mat.shape == (101, 101)


def test_solve_writes_the_matrix_before_the_solve(tmp_path, interval_csv, capsys,
                                                  monkeypatch):
    # the matrix of a system the solver fails on is the one worth inspecting;
    # pim.solve names the function once the package is imported, hence sys.modules
    def failing(*args, **kwargs):
        raise SolverError("synthetic LU failure")

    monkeypatch.setattr(sys.modules["pim.solve"], "_solve_dense", failing)
    out, mtx = tmp_path / "u.csv", tmp_path / "m.mtx"
    rc = main(["solve", "--cloud", interval_csv, "--case", "interval_sine",
               "--out", str(out), "--matrix-out", str(mtx)])
    assert rc == 1
    assert "synthetic LU failure" in capsys.readouterr().err
    assert not out.exists()
    assert mmread(mtx).shape == (101, 101)


def test_solve_alternate_profile(tmp_path, interval_csv):
    out = tmp_path / "tg.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-const", "0",
               "--b-const", "3", "--t", "0.004", "--beta", "0.1",
               "--profile", "truncated_gaussian", "--out", str(out)])
    assert rc == 0
    _, body = read_solution(out)
    assert np.max(np.abs(body[:, 1] - 3.0)) < 1e-9


# each case: the solve flags beside --cloud interval.csv, and the two flags it names
SAME_FILE = {
    "out is the cloud": (["--case", "interval_sine", "--out", "interval.csv"],
                         "--out and --cloud"),
    "report is out": (["--case", "interval_sine", "--out", "u.csv", "--report", "u.csv"],
                      "--out and --report"),
    "matrix-out is out": (["--case", "interval_sine", "--out", "u.csv",
                           "--matrix-out", "u.csv"], "--out and --matrix-out"),
    "out is the f file": (["--f-file", "f.txt", "--out", "f.txt"], "--out and --f-file"),
    "./ spelling of the cloud": (["--case", "interval_sine", "--out", "./interval.csv"],
                                 "--out and --cloud"),
    "hard link to the cloud": (["--case", "interval_sine", "--out", "link.csv"],
                               "--out and --cloud"),
}


@pytest.mark.parametrize("case", list(SAME_FILE))
def test_solve_refuses_an_output_that_is_an_input_or_another_output(
        tmp_path, capsys, monkeypatch, interval_csv, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("0\n" * 101)
    os.link("interval.csv", "link.csv")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    flags, named = SAME_FILE[case]
    assert main(["solve", "--cloud", "interval.csv", *flags]) == 2
    assert f"{named} name the same file" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize("command", [
    ["generate", "--shape", "interval", "--n", "11"],
    ["sweep", "--case", "interval_sine", "--levels", "11,21"],
], ids=["generate", "sweep"])
def test_output_that_is_the_config_file_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver.tol = 1e-9\n")
    assert main(["--config", str(cfg), *command, "--out", str(cfg)]) == 2
    assert "--out and --config name the same file" in capsys.readouterr().err
    assert cfg.read_text() == "solver.tol = 1e-9\n" and os.listdir(tmp_path) == ["run.cfg"]


def test_solve_reads_files_that_start_with_a_byte_order_mark(tmp_path, interval_csv):
    # as spreadsheet "CSV UTF-8" exports write them
    (tmp_path / "f.txt").write_text("".join(f"{v:.17g}\n" for v in np.linspace(-1.0, 1.0, 101)))
    (tmp_path / "run.cfg").write_text("kernel.profile = truncated_gaussian\n")
    for name in ("interval.csv", "f.txt", "run.cfg"):
        (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())

    def solution(prefix):
        out = tmp_path / f"{prefix}u.csv"
        assert main(["--config", str(tmp_path / f"{prefix}run.cfg"), "solve",
                     "--cloud", str(tmp_path / f"{prefix}interval.csv"),
                     "--f-file", str(tmp_path / f"{prefix}f.txt"), "--b-const", "1",
                     "--out", str(out)]) == 0
        return out.read_bytes()

    assert solution("bom_") == solution("")


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
    # the literal columns, not SWEEP_HEADER: the header is derived from SweepRow
    assert lines[0] == ("level,n,h,t,beta,l2_error,h1_error,boundary_l2_error,"
                        "residual,wall_time_s")
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "sweep complete: 2 level(s)" in stdout


def test_sweep_seed_determinism(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--case", "interval_sine", "--levels", "51,101",
                     "--out", str(out)]) == 0
        outs.append(out.read_text().strip().splitlines())
    for r1, r2 in zip(outs[0], outs[1]):
        # identical except the timing column
        assert r1.split(",")[:9] == r2.split(",")[:9]


def test_sweep_rejects_steep_coupling_exponent(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling.gamma_t = 0.7\n")
    rc = main(["--config", str(cfg), "sweep", "--case", "interval_sine", "--levels", "51",
               "--out", str(tmp_path / "x.csv")])
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


@pytest.mark.parametrize("line", ["solver.restart = 0", "kernel.profile = bogus"])
def test_sweep_bad_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), "sweep", "--case", "interval_sine",
               "--levels", "51", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pim: error:" in err and "Traceback" not in err


MISTYPED = ["solver.tol = abc", "coupling.c_t = x", "assembly.dense_cutoff = abc"]


@pytest.mark.parametrize("command,line",
                         [(c, line) for c in ("solve", "sweep") for line in MISTYPED])
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
                ("generate", "kernel.profile = bogus"),
                ("solve", "coupling.gamma_t = 0.9"), ("solve", "coupling.c_beta = -1")]
# assembly.dense_cutoff is range-checked in main, not by a settings object
OUT_OF_RANGE += [(command, "assembly.dense_cutoff = -5")
                 for command in ("generate", "solve", "sweep", "oracle-check")]


@pytest.mark.parametrize("command,line", OUT_OF_RANGE)
def test_out_of_range_config_value_exits_2_on_every_command(tmp_path, capsys, interval_csv,
                                                          command, line):
    # the merged config is checked once, before any command runs: a solve
    # with explicit --t/--beta never uses the coupling, generate no setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    argv = {"generate": ["generate", "--shape", "interval", "--n", "11", "--out", str(out)],
            "solve": ["solve", "--cloud", interval_csv, "--case", "interval_sine",
                      "--t", "0.001", "--beta", "0.05", "--out", str(out)],
            "sweep": ["sweep", "--case", "interval_sine", "--levels", "51", "--out", str(out)],
            "oracle-check": ["oracle-check"]}[command]
    rc = main(["--config", str(cfg)] + argv)
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
# one error path: every bad input exits 2 with one message
# ---------------------------------------------------------------------------

BAD_INPUT = {
    # case: (argv after the paths are filled in, a piece the message must name)
    "generate --out": (["generate", "--shape", "interval", "--n", "11",
                        "--out", "{missing}/c.csv"], "{missing}"),
    "solve --out": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                     "--out", "{missing}/u.csv"], "{missing}"),
    "solve --report": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                        "--out", "{tmp}/u.csv", "--report", "{missing}/r.txt"], "{missing}"),
    "solve --matrix-out": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                            "--out", "{tmp}/u.csv", "--matrix-out", "{missing}/m.mtx"],
                           "{missing}"),
    "sweep --out": (["sweep", "--case", "interval_sine", "--levels", "51",
                     "--out", "{missing}/s.csv"], "{missing}"),
    "one-point cloud": (["solve", "--cloud", "{tmp}/one.csv", "--f-const", "0",
                         "--out", "{tmp}/u.csv"], "2 points"),
    "no source": (["solve", "--cloud", "{cloud}", "--out", "{tmp}/u.csv"],
                  "pim: error: need --case, --f-file or --f-const\n"),
    "empty level list": (["sweep", "--case", "interval_sine", "--levels", ",",
                          "--out", "{tmp}/s.csv"], "pim: error: empty level list\n"),
    # int's own message once named neither --levels nor its syntax
    "sweep --levels 1.5": (["sweep", "--case", "interval_sine", "--levels", "1.5",
                            "--out", "{tmp}/s.csv"],
                           "pim: error: --levels must be comma-separated integers, got '1.5'\n"),
    "sweep --levels 200,,x": (["sweep", "--case", "interval_sine", "--levels", "200,,x",
                               "--out", "{tmp}/s.csv"],
                              "pim: error: --levels must be comma-separated integers, "
                              "got '200,,x'\n"),
    # a non-finite shape flag: inf once overflowed int() with a traceback, nan
    # failed inside it naming no value, an infinite end made non-finite points
    "generate --a -inf": (["generate", "--shape", "interval", "--n", "11", "--a=-inf",
                           "--out", "{tmp}/c.csv"],
                          "pim: error: interval requires finite a < b, got [-inf, 1.0]\n"),
    "generate --b inf": (["generate", "--shape", "interval", "--n", "11", "--b", "inf",
                          "--out", "{tmp}/c.csv"],
                         "pim: error: interval requires finite a < b, got [0.0, inf]\n"),
    "generate --wx inf": (["generate", "--shape", "rectangle", "--n", "50", "--wx", "inf",
                           "--out", "{tmp}/c.csv"],
                          "pim: error: rectangle requires finite widths, got (inf, 1.0)\n"),
    "generate --wy nan": (["generate", "--shape", "rectangle", "--n", "50", "--wy", "nan",
                           "--out", "{tmp}/c.csv"],
                          "pim: error: rectangle requires finite widths, got (1.0, nan)\n"),
    # a width ratio that overflows once raised OverflowError inside int()
    "generate --wx 1e300 --wy 1e-300": (["generate", "--shape", "rectangle", "--n", "50",
                                         "--wx", "1e300", "--wy", "1e-300",
                                         "--out", "{tmp}/c.csv"],
                                        "pim: error: rectangle width ratio wx/wy = inf is "
                                        "too extreme for 50 points: its grid would hold "
                                        "about inf\n"),
    # an output path that is an existing directory: open's own EISDIR text
    "generate --out dir": (["generate", "--shape", "interval", "--n", "11",
                            "--out", "{tmp}"], "Is a directory: '{tmp}'"),
    "solve --out dir": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                         "--out", "{tmp}"], "Is a directory: '{tmp}'"),
    "solve --report dir": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                            "--out", "{tmp}/u.csv", "--report", "{tmp}"],
                           "Is a directory: '{tmp}'"),
    "solve --matrix-out dir": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                                "--out", "{tmp}/u.csv", "--matrix-out", "{tmp}"],
                               "Is a directory: '{tmp}'"),
    "sweep --out dir": (["sweep", "--case", "interval_sine", "--levels", "51",
                         "--out", "{tmp}"], "Is a directory: '{tmp}'"),
    # an output under a regular file: open's own ENOTDIR text
    "generate --out under a file": (["generate", "--shape", "interval", "--n", "11",
                                     "--out", "{cloud}/c.csv"],
                                    "Not a directory: '{cloud}/c.csv'"),
    "solve --report under a file": (["solve", "--cloud", "{cloud}", "--case", "interval_sine",
                                     "--out", "{tmp}/u.csv", "--report", "{cloud}/r.txt"],
                                    "Not a directory: '{cloud}/r.txt'"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_exits_2_with_one_message(tmp_path, capsys, interval_csv, monkeypatch,
                                            case):
    # once: the sweep ran to its end and then raised, the matrix dump wrote
    # nothing and exited 0, and the one-point cloud raised from fill_distance;
    # later, a missing output directory stopped pim solve only after it had
    # assembled and solved, and pim sweep only after its last level
    pointcloud.save(pointcloud.PointCloud(
        points=np.array([[0.5]]), intrinsic_dim=1, boundary_indices=np.array([0]),
        volume_weights=np.array([1.0]), area_weights=np.array([1.0])), tmp_path / "one.csv")
    calls = []

    def recorded(module, name):
        real = getattr(module, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for module, name in ((pointcloud, "generate"), (pointcloud, "load"),
                         (analysis, "solve_on_cloud"), (analysis, "solve_case_on_cloud")):
        monkeypatch.setattr(module, name, recorded(module, name))
    paths = {"cloud": interval_csv, "tmp": str(tmp_path), "missing": str(tmp_path / "no_dir")}
    argv, named = BAD_INPUT[case]
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("pim: error:") == 1 and "Traceback" not in err
    assert named.format(**paths) in err, err
    # an output check comes before any work and writes nothing
    assert calls == (["load"] if case == "one-point cloud" else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["interval.csv", "one.csv"]


def test_non_numeric_data_line_exits_2_before_the_solve(tmp_path, capsys, interval_csv,
                                                       monkeypatch):
    fsrc = tmp_path / "f.txt"
    fsrc.write_text("1\n\nabc\n")
    calls = []
    monkeypatch.setattr(analysis, "solve_on_cloud", lambda *a, **k: calls.append(1))
    out = tmp_path / "u.csv"
    rc = main(["solve", "--cloud", interval_csv, "--f-file", str(fsrc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"pim: error: {fsrc}:3: non-numeric source value\n"
    assert calls == [] and not out.exists()


def test_sweep_abort_is_reported_when_the_partial_write_fails(tmp_path, capsys,
                                                             monkeypatch):
    # the partial write's OSError once replaced the abort message and exit 1
    import pim.analysis as analysis
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def failing(*args, **kwargs):
        out_dir.rmdir()
        raise SolverError("synthetic failure")

    monkeypatch.setattr(analysis, "solve_case_on_cloud", failing)
    rc = main(["sweep", "--case", "interval_sine", "--levels", "51",
               "--out", str(out_dir / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("pim: error: sweep aborted after 0 level(s): synthetic failure; "
                             "partial results not written: ")
    assert str(out_dir / "s.csv") in err[0]


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


def test_config_coupling_sets_the_rule_and_t_beta_override_it(tmp_path, interval_csv):
    # the coupling constants are set only in a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling.c_t = 0.2\ncoupling.gamma_t = 0.5\ncoupling.c_beta = 0.3\n")
    out = tmp_path / "u.csv"
    argv = ["--config", str(cfg), "solve", "--cloud", interval_csv, "--case", "interval_sine",
            "--out", str(out)]

    def report():
        lines = (tmp_path / "u.csv.report.txt").read_text().splitlines()
        return {key: float(value) for key, _, value in (l.partition(" = ") for l in lines)
                if key in ("h", "t", "beta")}

    assert main(argv) == 0
    r = report()
    assert r["t"] == 0.2 * r["h"] ** 0.5 and r["beta"] == 0.3 * math.sqrt(r["t"])
    assert main(argv + ["--t", "0.001", "--beta", "0.05"]) == 0
    r = report()
    assert (r["t"], r["beta"]) == (0.001, 0.05)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.tool = 1e-9\n")
    rc = main(["--config", str(cfg), "oracle-check"])
    assert rc == 2
    assert "solver.tool" in capsys.readouterr().err


@pytest.mark.parametrize("profile", ["cubic", "truncated_gaussian"])
def test_oracle_check_all_pass(capsys, profile):
    rc = main(["oracle-check", "--profile", profile])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failure(s) out of 8 checks" in out
    assert out.count("  pass  ") == 8


def _half_laplacian(real_fill, cloud, *args, **kwargs):
    return real_fill(dataclasses.replace(cloud, volume_weights=0.5 * cloud.volume_weights),
                     *args, **kwargs)


def _half_penalty(real_fill, cloud, graph, params, profile, beta, *args, **kwargs):
    return real_fill(cloud, graph, params, profile, 2.0 * beta, *args, **kwargs)


def _row_volume(real_fill, cloud, *args, **kwargs):
    # each pair weighted by the row's V_i instead of the column's V_j, with the
    # diagonal recomputed so that every row keeps its sum (L still kills constants)
    system = real_fill(cloud, *args, **kwargs)
    m, n = system.matrix, system.n
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    off = rows != m.indices
    data = m.data.copy()
    data[off] *= cloud.volume_weights[rows[off]] / cloud.volume_weights[m.indices[off]]
    data[~off] = m @ np.ones(n) - np.bincount(rows[off], weights=data[off], minlength=n)
    return assembly.LinearSystem(matrix=sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape),
                                 rhs=system.rhs, meta=system.meta)


@pytest.mark.parametrize("mutation", [_half_laplacian, _half_penalty, _row_volume],
                         ids=["half-laplacian", "half-penalty", "row-volume"])
@pytest.mark.parametrize("profile", ["cubic", "truncated_gaussian"])
def test_oracle_check_catches_a_wrong_fill(monkeypatch, capsys, profile, mutation):
    # the operator checks read the matrix a solve assembles, so a wrong fill fails them
    real_fill = assembly.fill
    monkeypatch.setattr(assembly, "fill",
                        lambda *args, **kwargs: mutation(real_fill, *args, **kwargs))
    rc = main(["oracle-check", "--profile", profile])
    out = capsys.readouterr().out
    assert rc == 1
    assert "  FAIL  " in out and "0 failure(s)" not in out


@pytest.mark.parametrize("line,named", [("kernel.profile = bogus", "bogus")])
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
]
NONFINITE_IDS = [" ".join(c[2]) or c[1] for c in NONFINITE]
# the coupling constants have no flags: a config line sets each of them on any command
NONFINITE.append(("sweep", "coupling.c_beta = nan", [], ("c_beta=nan",)))
NONFINITE_IDS.append("sweep coupling.c_beta = nan")


@pytest.mark.parametrize("command,line,flags,named", NONFINITE, ids=NONFINITE_IDS)
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


# each removed key at its last default, which a config file could still name
REMOVED_KEYS = ["guardrails.r0_penalty = 2.0", "guardrails.r0_density = 20.0",
                "oracle.fineness = 8", "reference.factor = 4"]


@pytest.mark.parametrize("command", ["generate", "solve", "sweep", "oracle-check"])
@pytest.mark.parametrize("line", REMOVED_KEYS)
def test_removed_config_key_exits_2_naming_it(tmp_path, capsys, interval_csv, command, line):
    # these keys could switch off or weaken a check on the run's validity (a
    # NaN ceiling once silenced its guardrail); the key is refused before its
    # value is read and before any work, even where a guardrail would trip
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    argv = {"generate": ["generate", "--shape", "interval", "--n", "11", "--out", str(out)],
            "solve": ["solve", "--cloud", interval_csv, "--case", "interval_sine",
                      "--t", "0.0001", "--beta", "0.1", "--out", str(out)],
            "sweep": ["sweep", "--case", "interval_sine", "--levels", "51", "--out", str(out)],
            "oracle-check": ["oracle-check"]}[command]
    rc = main(["--config", str(cfg)] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("pim: error: ") and len(err.splitlines()) == 1
    assert "warning" not in err and "Traceback" not in err
    assert f"old.cfg:1: unknown key '{line.split()[0]}'" in err
    assert not out.exists()


def test_sweep_has_no_seed(tmp_path, capsys):
    # a sweep's clouds are unjittered: a seed would reach no random draw
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--case", "interval_sine", "--levels", "51", "--seed", "3",
               "--out", str(out)])
    assert rc == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--cloud", "{cloud}", "--case", "interval_sine", "--c-t", "5"],
    ["solve", "--cloud", "{cloud}", "--case", "interval_sine", "--t", "0.001", "--beta", "0.05",
     "--c-t", "5"],
    ["sweep", "--case", "interval_sine", "--levels", "51", "--gamma-t", "0.5"],
], ids=["solve", "solve --t --beta", "sweep"])
def test_coupling_constants_have_no_flags(tmp_path, capsys, interval_csv, argv):
    # --t/--beta once silently overrode these flags; the constants are set
    # only through the coupling.* keys of a config file
    out = tmp_path / "x.csv"
    rc = main([a.format(cloud=interval_csv) for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.csv.report.txt").exists()
    for command in ("solve", "sweep"):
        assert main([command, "--help"]) == 0
        words = set(capsys.readouterr().out.split())
        assert "--tol" in words and not {"--c-t", "--c-beta", "--gamma-t"} & words


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
