import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

import pim.analysis as analysis
from oracles import fd_laplacian_check
from pim.analysis import (Coupling, Guardrails, SWEEP_HEADER, SweepAborted,
                          boundary_l2_error, builtin_cases, convergence_sweep, error_floor_study,
                          get_case, h1_error, l2_error,
                          l2_norm, lemma_norm_check, robin_gap_study,
                          solve_case_on_cloud)
from pim.interpolate import Interpolant
from pim.kernel import get_profile
from pim.pointcloud import ManifoldSpec, generate
from pim.solve import SolverError

CASE_NAMES = ["interval_sine", "disk_paraboloid", "rectangle_quadratic",
              "cap_linear"]


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

def test_case_registry():
    assert [c.name for c in builtin_cases()] == CASE_NAMES
    for name in CASE_NAMES:
        assert get_case(name).name == name
    with pytest.raises(ValueError, match="interval_sine"):
        get_case("heat_kernel")


def test_case_hand_values():
    pi = math.pi
    iv = get_case("interval_sine")
    assert iv.u(np.array([[0.5]]))[0] == pytest.approx(1.0)
    assert iv.f(np.array([[0.5]]))[0] == pytest.approx(pi * pi)
    assert iv.grad_u(np.array([[0.25]]))[0, 0] == pytest.approx(pi / math.sqrt(2.0))
    assert iv.b(np.array([[0.0]]))[0] == 0.0

    dk = get_case("disk_paraboloid")
    assert dk.u(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)
    assert dk.u(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.0)
    assert dk.f(np.array([[0.3, -0.1]]))[0] == pytest.approx(4.0)

    rc = get_case("rectangle_quadratic")
    assert rc.f(np.array([[0.2, 0.9]]))[0] == pytest.approx(-4.0)
    assert rc.b(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)

    cap = get_case("cap_linear")
    pole = np.array([[0.0, 0.0, 1.0]])
    assert cap.u(pole)[0] == pytest.approx(1.0)
    assert cap.f(pole)[0] == pytest.approx(2.0)
    assert np.allclose(cap.grad_u(pole), 0.0)


def test_cap_gradient_field_is_tangential(rng):
    cap = get_case("cap_linear")
    z = rng.uniform(0.5, 1.0, size=50)
    th = rng.uniform(0.0, 2.0 * math.pi, size=50)
    r = np.sqrt(1.0 - z * z)
    X = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    g = cap.grad_u(X)
    assert np.max(np.abs(np.einsum("qd,qd->q", g, X))) < 1e-14


@pytest.mark.parametrize("name", CASE_NAMES)
def test_source_term_matches_fd_laplacian(name):
    # the hand-derived f must equal -Laplacian(u) to finite-difference depth
    assert fd_laplacian_check(get_case(name), n_points=80, seed=3) < 1e-5


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def test_l2_norm_against_closed_forms():
    targets = {
        "interval_sine": math.sqrt(0.5),
        "disk_paraboloid": math.sqrt(math.pi / 3.0),
        "rectangle_quadratic": math.sqrt(28.0 / 45.0),
        "cap_linear": math.sqrt(2.0 * math.pi * (1.0 - 0.125) / 3.0),
    }
    for name, exact in targets.items():
        case = get_case(name)
        ref = generate(case.spec.with_resolution(4000), seed=0)
        assert l2_norm(case, ref) == pytest.approx(exact, rel=1e-2), name


def test_l2_error_against_simpson_oracle():
    case = get_case("interval_sine")
    cloud = generate(case.spec.with_resolution(201))
    interp, _ = solve_case_on_cloud(case, cloud, t=0.004, beta=0.1)
    ref = generate(case.spec.with_resolution(804))
    err = l2_error(interp, case, ref)

    xs = np.linspace(0.0, 1.0, 2001)[:, None]
    diff = case.u(xs) - interp.eval_many(xs)
    oracle = math.sqrt(simpson(diff * diff, x=xs[:, 0]))
    assert err == pytest.approx(oracle, rel=1e-2)
    assert l2_error(interp, case, ref, relative=True) == \
        pytest.approx(err / l2_norm(case, ref), rel=1e-14)


def test_error_norms_positive_and_consistent(interval_cloud):
    case = get_case("interval_sine")
    interp, _ = solve_case_on_cloud(case, interval_cloud, t=0.004, beta=0.1)
    ref = generate(case.spec.with_resolution(404))
    l2 = l2_error(interp, case, ref)
    h1 = h1_error(interp, case, ref)
    bl2 = boundary_l2_error(interp, case, ref)
    assert 0.0 < l2 < h1               # H1 dominates L2 by construction
    assert bl2 > 0.0


# ---------------------------------------------------------------------------
# norm-comparison record
# ---------------------------------------------------------------------------

def test_lemma_record_fields(interval_cloud):
    case = get_case("interval_sine")
    interp, _ = solve_case_on_cloud(case, interval_cloud, t=0.004, beta=0.1)
    ref = generate(case.spec.with_resolution(404))
    rec = lemma_norm_check(interp, ref)
    assert set(rec) == {"lhs", "rhs", "ratio", "lhs_volume", "lhs_boundary",
                        "h1_norm", "f_sup", "h", "t"}
    assert rec["lhs"] == pytest.approx(
        rec["lhs_volume"] + rec["t"] ** 0.25 * rec["lhs_boundary"], rel=1e-15)
    assert rec["rhs"] == pytest.approx(
        rec["h1_norm"] + math.sqrt(rec["h"]) * rec["t"] ** 0.75 * rec["f_sup"],
        rel=1e-15)
    assert rec["ratio"] == pytest.approx(rec["lhs"] / rec["rhs"], rel=1e-15)
    assert rec["f_sup"] == pytest.approx(math.pi ** 2, rel=1e-6)


def test_lemma_scaling_homogeneity(interval_cloud):
    # both sides are 1-homogeneous in (u, f, b); doubling is exact in binary
    case = get_case("interval_sine")
    interp, _ = solve_case_on_cloud(case, interval_cloud, t=0.004, beta=0.1)
    ref = generate(case.spec.with_resolution(404))
    doubled = Interpolant(cloud=interp.cloud, params=interp.params,
                          profile=interp.profile, beta=interp.beta,
                          u=2.0 * interp.u, f=2.0 * interp.f, b=2.0 * interp.b)
    one = lemma_norm_check(interp, ref)
    two = lemma_norm_check(doubled, ref)
    assert two["lhs"] == 2.0 * one["lhs"]
    assert two["rhs"] == 2.0 * one["rhs"]
    assert two["ratio"] == one["ratio"]


def test_lemma_zero_field(interval_cloud):
    from pim.kernel import KernelParams, cubic_profile
    m = len(interval_cloud.boundary_indices)
    interp = Interpolant(cloud=interval_cloud,
                         params=KernelParams(t=0.004, k=1),
                         profile=cubic_profile, beta=0.1,
                         u=np.zeros(interval_cloud.n),
                         f=np.zeros(interval_cloud.n), b=np.zeros(m))
    rec = lemma_norm_check(interp, interval_cloud)
    assert rec["lhs"] == 0.0 and rec["rhs"] == 0.0 and rec["ratio"] == 0.0


# ---------------------------------------------------------------------------
# coupling and guardrails
# ---------------------------------------------------------------------------

def test_coupling_defaults_and_formulas():
    c = Coupling()
    assert (c.c_t, c.gamma_t, c.c_beta) == (0.1, 4.0 / 7.0, 0.5)
    h = 0.02
    assert c.t_of(h) == pytest.approx(0.1 * h ** (4.0 / 7.0), rel=1e-15)
    t = c.t_of(h)
    assert c.beta_of(t) == pytest.approx(0.5 * math.sqrt(t), rel=1e-15)


def test_coupling_rejects_nonvanishing_density_ratio():
    # gamma >= 2/3 would keep h/t^(3/2) from shrinking under refinement
    with pytest.raises(ValueError, match="2/3"):
        Coupling(gamma_t=2.0 / 3.0)
    with pytest.raises(ValueError, match="2/3"):
        Coupling(gamma_t=0.9)
    with pytest.raises(ValueError):
        Coupling(c_t=0.0)
    with pytest.raises(ValueError):
        Coupling(c_beta=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"c_t={bad}"):
            Coupling(c_t=bad)
        with pytest.raises(ValueError, match=f"c_beta={bad}"):
            Coupling(c_beta=bad)
    Coupling(gamma_t=0.66)  # just inside is fine


def test_guardrails_flags_and_warnings():
    g = Guardrails()
    with pytest.warns(RuntimeWarning, match="guardrail") as record:
        flags = g.check(t=0.09, beta=0.01, h=1.0)
    assert len(flags) == 2
    assert any("sqrt(t)/beta" in f for f in flags)
    assert any("h/t^1.5" in f for f in flags)
    # one warning per flag, in the text pim's commands print after "warning: "
    assert [str(w.message) for w in record] == [
        f"stability guardrail exceeded: {f}" for f in flags]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # healthy parameters are silent
        assert g.check(t=0.01, beta=0.1, h=0.001) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
def test_guardrails_reject_bad_ceilings(bad):
    # a NaN ceiling silently switched its guardrail off
    with pytest.raises(ValueError, match=f"r0_penalty={bad}"):
        Guardrails(r0_penalty=bad)
    with pytest.raises(ValueError, match=f"r0_density={bad}"):
        Guardrails(r0_density=bad)


def test_default_coupling_stays_inside_guardrails():
    c, g = Coupling(), Guardrails()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (0.02, 0.01, 0.005, 0.0025):
            t = c.t_of(h)
            assert g.check(t, c.beta_of(t), h) == []


# ---------------------------------------------------------------------------
# sweeps and studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    case = get_case("interval_sine")
    return convergence_sweep(case, [51, 101], reference_factor=2)


def test_convergence_sweep_rows(small_sweep):
    rows = small_sweep.rows
    assert small_sweep.case_name == "interval_sine"
    assert [r.level for r in rows] == [0, 1]
    assert [r.n for r in rows] == [51, 101]
    assert rows[1].h < rows[0].h
    assert rows[1].t < rows[0].t
    assert rows[1].beta < rows[0].beta
    for r in rows:
        assert r.flags == []
        assert r.residual <= 1e-10
        assert r.wall_time_s > 0.0
        assert np.isfinite([r.l2_error, r.h1_error, r.boundary_l2_error]).all()
        assert 0.0 < r.lemma["ratio"] < math.inf


def test_sweep_csv_format(small_sweep, tmp_path):
    text = small_sweep.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert len(cells) == len(SWEEP_HEADER.split(","))
    assert int(cells[0]) == 0 and int(cells[1]) == 51
    assert float(cells[5]) == small_sweep.rows[0].l2_error  # .17g round-trips

    path = tmp_path / "sweep.csv"
    small_sweep.to_csv(path)
    assert path.read_text() == text


def test_sweep_determinism_excluding_wall_time(small_sweep):
    case = get_case("interval_sine")
    again = convergence_sweep(case, [51, 101], reference_factor=2)
    for r1, r2 in zip(small_sweep.rows, again.rows):
        assert r1.csv_cells()[:9] == r2.csv_cells()[:9]


# Each study on clouds of resolution sizes[k]: the Robin gap study keeps
# sizes[0] and takes one decreasing beta per level.
STUDIES = {
    "convergence_sweep": lambda case, sizes, **kw: convergence_sweep(case, sizes, **kw),
    "error_floor_study": lambda case, sizes, **kw: error_floor_study(
        case, t=0.03, beta=0.15, levels=sizes, **kw),
    "robin_gap_study": lambda case, sizes, **kw: robin_gap_study(
        case, t=0.03, n=sizes[0], betas=[0.3 / (k + 1) for k in range(len(sizes))],
        **kw),
}


def _resolutions(study, sizes):
    return [sizes[0]] * len(sizes) if study == "robin_gap_study" else list(sizes)


def _record_interpolants(monkeypatch):
    """Record the interpolant every study level solves for, in level order."""
    real = analysis.solve_case_on_cloud
    interps = []

    def recorded(*args, **kwargs):
        interp, report = real(*args, **kwargs)
        interps.append(interp)
        return interp, report

    monkeypatch.setattr(analysis, "solve_case_on_cloud", recorded)
    return interps


@pytest.mark.filterwarnings("ignore:stability guardrail")
@pytest.mark.parametrize("study", list(STUDIES))
@pytest.mark.parametrize("case_name", ["disk_paraboloid", "cap_linear"])
def test_study_norms_equal_fresh_separate_passes(monkeypatch, case_name, study):
    # a study level takes its norms from one value-and-gradient pass; they
    # must equal norms computed from a fresh interpolant's separate passes
    # (values, boundary values, values and gradients) bit for bit
    case = get_case(case_name)
    interps = _record_interpolants(monkeypatch)
    [row] = STUDIES[study](case, [300], reference_factor=2, seed=1).rows
    ref = generate(case.spec.with_resolution(600), seed=1)
    fresh = _fresh(interps[0])
    q, w = ref.points, ref.volume_weights
    diff = case.u(q) - fresh.eval_many(q)
    l2_sq = float(np.sum(diff * diff * w))
    gdiff = case.grad_u(q) - fresh.value_and_grad_many(q)[1]
    grad_sq = float(np.sum(np.einsum("qd,qd->q", gdiff, gdiff) * w))
    bdiff = case.u(ref.boundary_points) - fresh.eval_many(ref.boundary_points)
    assert row.l2_error == math.sqrt(l2_sq)
    assert row.h1_error == math.sqrt(l2_sq + grad_sq)
    assert row.boundary_l2_error == \
        math.sqrt(float(np.sum(bdiff * bdiff * ref.area_weights)))


def _fresh(interp):
    """An interpolant with ``interp``'s data and no pass kept yet."""
    return Interpolant(cloud=interp.cloud, params=interp.params,
                       profile=interp.profile, beta=interp.beta,
                       u=interp.u, f=interp.f, b=interp.b)


def _count_passes(monkeypatch):
    """Record the name of every eval_many / value_and_grad_many call."""
    calls = []
    for name in ("value_and_grad_many", "eval_many"):
        real = getattr(Interpolant, name)

        def counted(self, X, *rest, _name=name, _real=real):
            calls.append(_name)
            return _real(self, X, *rest)

        monkeypatch.setattr(Interpolant, name, counted)
    return calls


NORMS = {
    "l2": lambda interp, case, ref: l2_error(interp, case, ref),
    "h1": lambda interp, case, ref: h1_error(interp, case, ref),
    "boundary": lambda interp, case, ref: boundary_l2_error(interp, case, ref),
    "lemma": lambda interp, case, ref: lemma_norm_check(interp, ref),
}


@pytest.fixture(scope="module")
def disk_level():
    case = get_case("disk_paraboloid")
    cloud = generate(case.spec.with_resolution(200), seed=1, jitter=0.2)
    ref = generate(case.spec.with_resolution(400), seed=1)
    interp, _ = solve_case_on_cloud(case, cloud, t=0.03, beta=0.15)
    return case, interp, ref


@pytest.mark.parametrize("order", list(itertools.permutations(NORMS)),
                         ids=lambda order: "-".join(order))
def test_norms_share_one_pass_in_any_order(monkeypatch, disk_level, order):
    case, interp, ref = disk_level
    want = {name: NORMS[name](_fresh(interp), case, ref) for name in order}
    calls = _count_passes(monkeypatch)
    interp = _fresh(interp)
    got = {name: NORMS[name](interp, case, ref) for name in order}
    assert calls == ["value_and_grad_many"]
    assert got == want


def test_equal_cloud_object_makes_a_new_pass(monkeypatch, disk_level):
    # the memo is keyed by the cloud object, not by its content, and holds
    # only the last cloud
    case, interp, ref = disk_level
    twin = generate(case.spec.with_resolution(400), seed=1)
    assert twin is not ref and np.array_equal(twin.points, ref.points)
    interp = _fresh(interp)
    calls = _count_passes(monkeypatch)
    first = h1_error(interp, case, ref)
    assert h1_error(interp, case, twin) == first
    assert h1_error(interp, case, ref) == first
    assert calls == ["value_and_grad_many"] * 3


def test_memo_arrays_are_read_only(disk_level):
    _, interp, ref = disk_level
    vals, grads = _fresh(interp).on_cloud(ref)
    assert not vals.flags.writeable and not grads.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 0.0
    with pytest.raises(ValueError):
        grads[0, 0] = 0.0


@pytest.mark.parametrize("profile_name", ["cubic", "truncated_gaussian"])
@pytest.mark.parametrize("case_name", CASE_NAMES)
def test_boundary_error_equals_a_separate_boundary_pass(case_name, profile_name):
    # the boundary rows of the reference pass equal a pass over the
    # boundary points alone, bit for bit
    case = get_case(case_name)
    n = 101 if case_name == "interval_sine" else 300
    cloud = generate(case.spec.with_resolution(n), seed=2, jitter=0.2)
    ref = generate(case.spec.with_resolution(2 * n), seed=2)
    t = Coupling().t_of(cloud.metadata["h"])
    interp, _ = solve_case_on_cloud(case, cloud, t, Coupling().beta_of(t),
                                    profile=get_profile(profile_name))
    bdiff = case.u(ref.boundary_points) - _fresh(interp).eval_many(ref.boundary_points)
    assert boundary_l2_error(interp, case, ref) == \
        math.sqrt(float(np.sum(bdiff * bdiff * ref.area_weights)))


@pytest.mark.filterwarnings("ignore:stability guardrail")
def test_sweep_level_makes_one_reconstruction_pass(monkeypatch):
    # every norm of a level, the boundary one and the lemma record included,
    # comes from one value-and-gradient pass over the reference cloud, in
    # every study
    calls = _count_passes(monkeypatch)
    case = get_case("disk_paraboloid")
    for study, run in STUDIES.items():
        calls.clear()
        run(case, [200, 300], reference_factor=2, seed=1)
        assert calls == ["value_and_grad_many"] * 2, study


@pytest.mark.filterwarnings("ignore:stability guardrail")
def test_sweep_lemma_record_shares_the_level_pass(monkeypatch):
    # every row of every study carries the lemma record of the level's one
    # value-and-gradient pass; it must equal lemma_norm_check's own pass
    case = get_case("interval_sine")
    real = Interpolant.value_and_grad_many
    sizes = [51, 101]
    for study, run in STUDIES.items():
        passes = []

        def counted(self, X, project="auto"):
            passes.append((self, np.array(X)))
            return real(self, X, project)

        monkeypatch.setattr(Interpolant, "value_and_grad_many", counted)
        result = run(case, sizes, reference_factor=2)
        monkeypatch.undo()
        assert len(passes) == len(result.rows) == len(sizes), study
        for n, row, (interp, X) in zip(_resolutions(study, sizes), result.rows, passes):
            ref = generate(case.spec.with_resolution(2 * n), seed=0)
            assert np.array_equal(X, ref.points), study
            assert row.lemma == lemma_norm_check(interp, ref), study


@pytest.mark.filterwarnings("ignore:stability guardrail")
@pytest.mark.parametrize("study", list(STUDIES))
def test_studies_generate_clouds_only_when_the_size_changes(monkeypatch, study):
    real = analysis.generate
    made = []

    def counted(spec, *args, **kwargs):
        made.append(spec.resolution)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "generate", counted)
    sizes = [51, 51, 101]
    STUDIES[study](get_case("interval_sine"), sizes, reference_factor=2)
    levels = sorted(set(_resolutions(study, sizes)))
    assert made == [n for m in levels for n in (m, 2 * m)]


@pytest.mark.filterwarnings("ignore:stability guardrail")
@pytest.mark.parametrize("study", list(STUDIES))
def test_sweep_abort_preserves_partial(monkeypatch, study):
    real = analysis.solve_case_on_cloud
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverError("synthetic failure", {"level": calls["n"]})
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_case_on_cloud", flaky)
    case = get_case("interval_sine")
    with pytest.raises(SweepAborted) as exc:
        STUDIES[study](case, [51, 101, 201], reference_factor=2)
    partial = exc.value.partial
    assert len(partial.rows) == 1
    assert partial.rows[0].n == 51
    assert isinstance(exc.value.cause, SolverError)
    assert "1 level" in str(exc.value)


def test_robin_gap_study_requires_decreasing_betas():
    case = get_case("interval_sine")
    with pytest.raises(ValueError, match="decreasing"):
        robin_gap_study(case, t=1e-3, n=101, betas=[0.1, 0.2])
    with pytest.raises(ValueError, match="decreasing"):
        robin_gap_study(case, t=1e-3, n=101, betas=[0.2, 0.2])


@pytest.mark.parametrize("t,betas,match", [
    (1e-3, [0.1, 0.0], "every beta must be positive and finite, got 0.0"),
    (-1e-3, [0.1], "t must be positive and finite, got -0.001"),
    (math.nan, [0.1], "t must be positive and finite, got nan"),
    (1e-3, [math.inf, 0.1], "every beta must be positive and finite, got inf"),
])
def test_robin_gap_study_rejects_bad_t_or_beta_before_any_level(monkeypatch, t, betas, match):
    # a zero beta used to fail in the guardrail after solving level 0, and a
    # negative t with a "math domain error" that named nothing
    calls = []

    def counted(name):
        real = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("generate", "solve_case_on_cloud"):
        monkeypatch.setattr(analysis, name, counted(name))
    with pytest.raises(ValueError, match=re.escape(match)):
        robin_gap_study(get_case("interval_sine"), t=t, n=101, betas=betas)
    assert calls == []


def test_robin_gap_study_single_beta():
    case = get_case("interval_sine")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = robin_gap_study(case, t=1e-3, n=101, betas=[0.3],
                              reference_factor=2)
    assert len(res.rows) == 1
    assert res.rows[0].beta == 0.3
    assert res.rows[0].t == 1e-3


def test_error_floor_study_never_warns():
    # deliberately past the density guardrail; the study must stay silent
    case = get_case("interval_sine")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = error_floor_study(case, t=4e-3, beta=0.05, levels=[51, 101],
                                reference_factor=2)
    assert len(res.rows) == 2
    assert all(r.t == 4e-3 and r.beta == 0.05 for r in res.rows)
    # parameters sit past the default density ceiling, yet the study runs
    # unflagged: it exists to probe exactly that regime
    assert res.rows[0].h / 4e-3 ** 1.5 > Guardrails().r0_density
    assert all(r.flags == [] for r in res.rows)
