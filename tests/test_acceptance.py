"""End-to-end acceptance gate.

Seven criteria cover structural exactness, oracle agreement, interval
convergence, the fixed-bandwidth error floor, the boundary-penalty gap,
accuracy on a curved surface, and the discrete norm-comparison ratio.
Each test prints one verdict line

    ACCEPTANCE <label>: PASS|FAIL  [detail]

outside pytest's capture, so the verdicts are always visible.  Expected
numbers are pinned by the committed JSON fixtures (tests/fixtures/), which
tests/fixtures/regenerate.py reproduces from scratch.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from pim import analysis, pointcloud
from pim.analysis import (Coupling, convergence_sweep, error_floor_study,
                          get_case, l2_error, robin_gap_study,
                          solve_case_on_cloud)
from oracles import assemble_direct, boundary_column_vector, grad_Rbar_t_x, grad_Rt_x
from pim.assembly import assemble
from pim.interpolate import Interpolant
from pim.kernel import (KernelParams, cubic_profile, eval_Rt,
                        truncated_gaussian_profile)
from pim.operators import energy_identity
from pim.solve import solve

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EPS = np.finfo(float).eps


def fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


def matches(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def announce(capsys, label, ok, detail=""):
    with capsys.disabled():
        line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line)


def case_parameters(cloud):
    coupling = Coupling()
    t = coupling.t_of(cloud.metadata["h"])
    return t, coupling.beta_of(t)


@pytest.fixture(scope="module")
def interval_sweep_result():
    case = get_case("interval_sine")
    start = time.perf_counter()
    sweep = convergence_sweep(case, (101, 201, 401, 801))
    return sweep, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: structural identities on every built-in geometry
# ---------------------------------------------------------------------------

def test_criterion_1_structural_identities(capsys):
    rng = np.random.default_rng(20240817)
    const = 1.75
    worst_const = 0.0     # constant-data solutions vs the constant
    worst_interp = 0.0    # |I(p_i) - u_i| / (1 + |u_i|), every solved system
    rowsum_ok = True      # matrix row sums vs the boundary-column vector
    energy_ok = True      # quadratic form sign + double-sum agreement
    for case in analysis.builtin_cases():
        cloud = pointcloud.generate(case.spec)
        t, beta = case_parameters(cloud)
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        m = cloud.boundary_indices.size

        # (a) zero source + constant boundary data returns the constant
        system = assemble(cloud, params, cubic_profile, beta,
                          np.zeros(cloud.n), np.full(m, const), dense_cutoff=cloud.n)
        report = solve(system)
        worst_const = max(worst_const,
                          float(np.max(np.abs(report.solution - const))))

        # (b) the reconstruction interpolates its samples, for both the
        # constant system and the manufactured case
        flat = Interpolant(cloud=cloud, params=params, profile=cubic_profile,
                           beta=beta, u=report.solution,
                           f=np.zeros(cloud.n), b=np.full(m, const))
        interp, _ = solve_case_on_cloud(case, cloud, t, beta)
        for rec in (flat, interp):
            dev = np.abs(rec.eval_many(cloud.points) - rec.u) \
                / (1.0 + np.abs(rec.u))
            worst_interp = max(worst_interp, float(dev.max()))

        # (c) row sums equal the boundary-column vector up to rounding
        case_system = assemble(cloud, params, cubic_profile, beta,
                               case.f(cloud.points),
                               case.b(cloud.boundary_points), dense_cutoff=cloud.n)
        g = boundary_column_vector(cloud, params, cubic_profile, beta)
        defect = np.abs(case_system.matrix @ np.ones(cloud.n) - g)
        scale = abs(case_system.matrix) @ np.ones(cloud.n)   # row sums of |entries|
        rowsum_ok &= defect.shape == scale.shape == (cloud.n,)
        rowsum_ok &= bool(np.all(defect <= 64.0 * EPS * scale))

        # (d) the quadratic form is nonnegative and equals the double sum
        for _ in range(100):
            u = rng.standard_normal(cloud.n)
            lhs, rhs = energy_identity(cloud, params, cubic_profile, u)
            energy_ok &= lhs >= -1e-12 * float(u @ u)
            energy_ok &= abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)

    ok = (worst_const <= 1e-9 and worst_interp <= 1e-9
          and rowsum_ok and energy_ok)
    announce(capsys, "1 structural identities", ok,
             f"const dev {worst_const:.2e}, interp dev {worst_interp:.2e}, "
             f"rowsum {'ok' if rowsum_ok else 'BAD'}, "
             f"energy {'ok' if energy_ok else 'BAD'} (400 random fields)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: implementation oracles
# ---------------------------------------------------------------------------

def test_criterion_2_implementation_oracles(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # neighbor-indexed assembly is bit-identical to the all-pairs loop
    specs = [pointcloud.ManifoldSpec.interval(0.0, 1.0, 301),
             pointcloud.ManifoldSpec.disk(400),
             pointcloud.ManifoldSpec.rectangle(1.0, 1.0, 441),
             pointcloud.ManifoldSpec.spherical_cap(0.5, 400)]
    exact = True
    clouds = [pointcloud.generate(spec) for spec in specs]
    clouds.append(pointcloud.generate(pointcloud.ManifoldSpec.disk(400),
                                      seed=9, jitter=0.15))
    for cloud in clouds:
        assert cloud.n <= 500
        t, beta = case_parameters(cloud)
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        f = np.sin(cloud.points[:, 0])
        b = np.ones(cloud.boundary_indices.size)
        for profile in (cubic_profile, truncated_gaussian_profile):
            fast = assemble(cloud, params, profile, beta, f, b,
                            dense_cutoff=cloud.n)
            slow = assemble_direct(cloud, params, profile, beta, f, b,
                                   dense_cutoff=cloud.n)
            for name in ("data", "indices", "indptr"):
                x, y = getattr(fast.matrix, name), getattr(slow.matrix, name)
                exact &= x.dtype == y.dtype and x.tobytes() == y.tobytes()
            exact &= bool(np.array_equal(fast.rhs, slow.rhs))

    # kernel gradients against central differences
    grads_ok = True
    step = 1e-6
    for profile in (cubic_profile, truncated_gaussian_profile):
        for dim in (1, 2, 3):
            p = KernelParams(t=0.01, k=dim)
            for _ in range(5):
                x = rng.uniform(-0.2, 0.2, size=dim)
                d = rng.standard_normal(dim)
                y = x + 0.6 * p.support_radius * d / np.linalg.norm(d)
                for fn, grad_fn in ((eval_Rt, grad_Rt_x),
                                    (None, grad_Rbar_t_x)):
                    if fn is None:
                        from pim.kernel import eval_Rbar_t as fn
                    g = grad_fn(x, y, p, profile)
                    fd = np.empty(dim)
                    for a in range(dim):
                        e = np.zeros(dim)
                        e[a] = step
                        fd[a] = (fn(x + e, y, p, profile)
                                 - fn(x - e, y, p, profile)) / (2.0 * step)
                    tol = 1e-5 * max(float(np.max(np.abs(fd))), 1e-12)
                    grads_ok &= bool(np.max(np.abs(g - fd)) <= tol)

    # reconstruction gradient against central differences
    case = get_case("interval_sine")
    cloud = pointcloud.generate(case.spec)
    interp, _ = solve_case_on_cloud(case, cloud, t=0.01, beta=0.1)
    h = 1e-6 * math.sqrt(0.01)
    for xq in (np.array([0.3]), np.array([0.62])):
        g = interp.grad(xq)[0]
        fd = (interp.eval(xq + h) - interp.eval(xq - h)) / (2.0 * h)
        grads_ok &= abs(g - fd) <= 1e-5 * max(abs(fd), 1e-12)

    # tail-kernel derivative identity d/ds Rbar = -R
    deriv_ok = True
    r = np.linspace(0.005, 0.985, 197)
    for profile in (cubic_profile, truncated_gaussian_profile):
        fd = (profile.Rbar(r + step) - profile.Rbar(r - step)) / (2.0 * step)
        deriv_ok &= bool(np.max(np.abs(fd + profile.R(r))) <= 1e-6)

    elapsed = time.perf_counter() - start
    ok = exact and grads_ok and deriv_ok and elapsed < 60.0
    announce(capsys, "2 implementation oracles", ok,
             f"index/brute {'bit-exact' if exact else 'MISMATCH'}, "
             f"gradients {'ok' if grads_ok else 'BAD'}, "
             f"dRbar=-R {'ok' if deriv_ok else 'BAD'}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: interval convergence under the coupling rule
# ---------------------------------------------------------------------------

def test_criterion_3_interval_convergence(interval_sweep_result, capsys):
    sweep, elapsed = interval_sweep_result
    pinned = fixture("interval_sweep.json")
    assert pinned["levels"] == [101, 201, 401, 801]
    coupling = Coupling()
    assert pinned["coupling"] == {"c_t": coupling.c_t,
                                  "gamma_t": coupling.gamma_t,
                                  "c_beta": coupling.c_beta}

    h1 = [r.h1_error for r in sweep.rows]
    steps_ok = all(b <= 1.10 * a for a, b in zip(h1, h1[1:]))
    overall_ok = h1[-1] <= 0.8 * h1[0]
    pin_ok = True
    for row, want in zip(sweep.rows, pinned["rows"]):
        pin_ok &= matches(row.l2_error, want["l2_error"])
        pin_ok &= matches(row.h1_error, want["h1_error"])
        pin_ok &= matches(row.boundary_l2_error, want["boundary_l2_error"])
    time_ok = elapsed < 120.0

    ok = steps_ok and overall_ok and pin_ok and time_ok
    announce(capsys, "3 interval convergence", ok,
             f"H1 {h1[0]:.4f}->{h1[-1]:.4f} "
             f"(ratio {h1[-1] / h1[0]:.3f} <= 0.8), "
             f"pinned {'match' if pin_ok else 'DRIFT'}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: fixed-bandwidth error floor
# ---------------------------------------------------------------------------

def test_criterion_4_error_floor(capsys):
    pinned = fixture("error_floor.json")
    study = error_floor_study(get_case("interval_sine"),
                              t=pinned["t"], beta=pinned["beta"],
                              levels=pinned["levels"])
    l2 = [r.l2_error for r in study.rows]
    change = abs(l2[2] - l2[1]) / l2[1]
    pin_ok = all(matches(a, b) for a, b in zip(l2, pinned["l2_errors"]))
    ok = change < 0.10 and pin_ok
    announce(capsys, "4 fixed-t error floor", ok,
             f"L2 {l2[0]:.6f}->{l2[1]:.6f}->{l2[2]:.6f}, "
             f"last-halving change {change * 100:.2f}% < 10%, "
             f"pinned {'match' if pin_ok else 'DRIFT'}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: shrinking the boundary penalty tightens the boundary fit
# ---------------------------------------------------------------------------

def test_criterion_5_robin_boundary_gap(capsys):
    pinned = fixture("robin_gap.json")
    with warnings.catch_warnings():
        # t is deliberately tiny relative to h; the density guardrail warns
        warnings.simplefilter("ignore", RuntimeWarning)
        study = robin_gap_study(get_case("interval_sine"), t=pinned["t"],
                                n=pinned["n"], betas=pinned["betas"])
    bl2 = [r.boundary_l2_error for r in study.rows]
    decreasing = all(b < a for a, b in zip(bl2, bl2[1:]))
    pin_ok = all(matches(a, b)
                 for a, b in zip(bl2, pinned["boundary_l2_errors"]))
    ok = decreasing and pin_ok
    announce(capsys, "5 robin boundary gap", ok,
             "boundary L2 " + "->".join(f"{v:.4f}" for v in bl2)
             + f" at beta {pinned['betas']}, "
             f"pinned {'match' if pin_ok else 'DRIFT'}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: accuracy on a curved surface
# ---------------------------------------------------------------------------

def test_criterion_6_spherical_cap(capsys):
    pinned = fixture("cap_case.json")
    case = get_case("cap_linear")
    coupling = Coupling()
    errors = []
    for res in pinned["resolutions"]:
        cloud = pointcloud.generate(case.spec.with_resolution(res))
        t = coupling.t_of(cloud.metadata["h"])
        interp, _ = solve_case_on_cloud(case, cloud, t, coupling.beta_of(t))
        ref = pointcloud.generate(case.spec.with_resolution(4 * cloud.n))
        errors.append(l2_error(interp, case, ref, relative=True))
    below = errors[0] <= pinned["relative_l2_bound"]
    improves = errors[1] < errors[0]
    pin_ok = all(matches(a, b)
                 for a, b in zip(errors, pinned["relative_l2_errors"]))
    ok = below and improves and pin_ok
    announce(capsys, "6 spherical cap accuracy", ok,
             f"rel L2 {errors[0]:.5f} <= bound {pinned['relative_l2_bound']:.5f}, "
             f"4x points -> {errors[1]:.5f}, "
             f"pinned {'match' if pin_ok else 'DRIFT'}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: discrete norm ratio stays under the recorded ceiling
# ---------------------------------------------------------------------------

def test_criterion_7_norm_ratio(interval_sweep_result, capsys):
    sweep, _ = interval_sweep_result
    pinned = fixture("interval_sweep.json")
    bound = pinned["lemma_ratio_bound"]
    ratios = [r.lemma["ratio"] for r in sweep.rows]
    finite = all(0.0 < x < math.inf for x in ratios)
    under = max(ratios) <= 1.2 * bound
    ok = finite and under
    announce(capsys, "7 discrete norm ratio", ok,
             f"max ratio {max(ratios):.4f} <= 1.2 x recorded {bound:.4f}")
    assert ok
