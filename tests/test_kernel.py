import math
import re

import numpy as np
import pytest

from oracles import PER_TERM, grad_Rbar_t_x, grad_Rt_x
from pim.kernel import (KernelParams, PROFILE_NAMES, cubic_profile,
                        eval_Rbar_t, eval_Rt, get_profile,
                        truncated_gaussian_profile)

PROFILES = [cubic_profile, truncated_gaussian_profile]


def test_cubic_closed_forms():
    r = np.array([0.0, 0.25, 0.5, 1.0, 1.7])
    assert np.allclose(cubic_profile.R(r),
                       [1.0, 0.421875, 0.125, 0.0, 0.0], atol=0.0)
    assert np.allclose(cubic_profile.Rbar(r),
                       [0.25, 0.25 * 0.75 ** 4, 0.015625, 0.0, 0.0], atol=0.0)
    assert cubic_profile.Rprime(np.array([0.25]))[0] == -3.0 * 0.75 ** 2


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_profile_admissibility(profile):
    # nonnegative, compactly supported, bounded below by delta0 on [0, 1/2]
    r = np.linspace(0.0, 2.0, 401)
    R = profile.R(r)
    assert np.all(R >= 0.0)
    assert np.all(R[r >= 1.0] == 0.0)
    assert np.all(profile.Rbar(r)[r >= 1.0] == 0.0)
    half = r <= 0.5
    assert profile.delta0 > 0.0
    assert np.all(R[half] >= profile.delta0 - 1e-15)


def masked_reference(profile):
    """The three profile functions evaluated through an r < 1 mask, with the
    closed forms each profile documents."""
    def masked(expr):
        def fn(r):
            r = np.asarray(r, dtype=float)
            inside = r < 1.0
            out = np.zeros_like(r)
            out[inside] = expr(r[inside], 1.0 - r[inside])
            return out
        return fn
    if profile.name == "cubic":
        return (masked(lambda r, w: w * w * w),
                masked(lambda r, w: 0.25 * w * w * w * w),
                masked(lambda r, w: -3.0 * w * w))
    return (masked(lambda r, w: np.exp(-r) * w * w * w),
            masked(lambda r, w: 6.0 * math.exp(-1.0) + np.exp(-r) * (
                w * w * w - 3.0 * w * w + 6.0 * w - 6.0)),
            masked(lambda r, w: -np.exp(-r) * w * w * (w + 3.0)))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_closed_forms_equal_the_masked_reference_bit_for_bit(profile, rng):
    r = np.concatenate([rng.uniform(0.0, 1.0, 5000), [0.0, 0.5, np.nextafter(1.0, 0.0)],
                        np.linspace(0.0, 1.0, 1000, endpoint=False)])
    for fn, ref in zip((profile.R, profile.Rbar, profile.Rprime),
                       masked_reference(profile)):
        got, want = fn(r), ref(r)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_terms_equal_the_per_term_reference_bit_for_bit(profile, rng):
    # one w for all three terms changes no bit, the -0.0 of R' beyond the support included
    edges = [0.0, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0, 1e300]
    r = np.concatenate([edges, rng.uniform(0.0, 1.5, 10_000)])
    for got, ref in zip(profile.terms(r), PER_TERM[profile.name]):
        want = ref(r)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in edges + [np.float64(x) for x in edges]:
        for got, ref in zip(profile.terms(x), PER_TERM[profile.name]):
            want = ref(x)
            assert type(got) is type(want) and np.ndim(got) == 0
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_exact_zeros_on_and_beyond_the_support_edge(profile):
    r = np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 50.0, np.inf])
    for fn in (profile.R, profile.Rbar, profile.Rprime):
        assert np.all(fn(r) == 0.0)
        for x in r:
            assert fn(x) == 0.0 and fn(float(x)) == 0.0


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_scalar_arguments(profile):
    r = np.array([0.0, 0.3, 0.999, 1.0, 2.0])
    for fn in (profile.R, profile.Rbar, profile.Rprime):
        values = fn(r)
        for x, want in zip(r, values):
            got = fn(float(x))
            assert np.ndim(got) == 0 and float(got) == want
            assert fn(x) == want


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_tail_integral_derivative(profile):
    # d/dr Rbar = -R by central differences on 100 interior nodes
    r = np.linspace(0.005, 0.995, 100)
    eps = 1e-6
    fd = (profile.Rbar(r + eps) - profile.Rbar(r - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd + profile.R(r))) <= 1e-6


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_tail_integral_matches_quadrature(profile):
    # Rbar(r) really is the integral of R over [r, 1]
    from scipy.integrate import quad
    for r0 in (0.0, 0.2, 0.55, 0.9):
        val, err = quad(lambda s: float(profile.R(np.array([s]))[0]), r0, 1.0,
                        epsabs=1e-13)
        assert abs(float(profile.Rbar(np.array([r0]))[0]) - val) <= 1e-10


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_smoothness_at_support_edge(profile):
    # C^2 matching at r = 1: value, slope, curvature all -> 0
    eps = np.array([1e-3, 1e-4])
    assert np.all(profile.R(1.0 - eps) <= 4.0 * eps ** 3)
    assert np.all(np.abs(profile.Rprime(1.0 - eps)) <= 4.0 * eps ** 2)


def test_smoothness_of_derivative_cubic():
    # R' itself is C^1: second difference of R stays bounded across r = 1
    r = np.linspace(0.9, 1.1, 2001)
    h = r[1] - r[0]
    Rv = cubic_profile.R(r)
    second = (Rv[2:] - 2.0 * Rv[1:-1] + Rv[:-2]) / h ** 2
    assert np.max(np.abs(second)) < 6.1  # max |R''| = 6 at r = 0 side


def test_normalizer_and_support_radius():
    p = KernelParams(t=0.25, k=1)
    assert p.C_t == pytest.approx(math.pi ** -0.5, rel=1e-15)
    assert p.support_radius == 1.0
    p2 = KernelParams(t=0.01, k=2)
    assert p2.C_t == pytest.approx(1.0 / (0.04 * math.pi), rel=1e-15)
    assert p2.support_radius == pytest.approx(0.2, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(t=0.0, k=1)
    with pytest.raises(ValueError):
        KernelParams(t=-1.0, k=2)
    with pytest.raises(ValueError):
        KernelParams(t=0.1, k=0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {t}"):
            KernelParams(t=t, k=1)
    # a positive finite t whose normalizer (4 pi t)^(-k/2) overflows or underflows
    for t, k in ((1e-250, 3), (1e300, 3)):
        with pytest.raises(ValueError, match=re.escape(f"positive for t = {t}, k = {k}")):
            KernelParams(t=t, k=k)


def test_eval_Rt_hand_values():
    params = KernelParams(t=0.25, k=1)
    x = np.array([0.3])
    assert eval_Rt(x, x, params) == pytest.approx(math.pi ** -0.5, rel=1e-14)
    # |x-y|^2 = 4t sits exactly on the support edge -> 0
    y = np.array([0.3 + 1.0])
    assert eval_Rt(x, y, params) == 0.0
    # s = 0.5 -> C_t * (1/2)^3
    y = np.array([0.3 + math.sqrt(2.0 * 0.25)])
    assert eval_Rt(x, y, params) == pytest.approx(
        math.pi ** -0.5 * 0.125, rel=1e-12)


def test_eval_Rbar_t_hand_values():
    params = KernelParams(t=0.25, k=1)
    x = np.array([0.0])
    assert eval_Rbar_t(x, x, params) == pytest.approx(
        0.25 * math.pi ** -0.5, rel=1e-14)
    y = np.array([1.2])
    assert eval_Rbar_t(x, y, params) == 0.0
    y = np.array([math.sqrt(0.5)])  # s = 0.5
    assert eval_Rbar_t(x, y, params) == pytest.approx(
        math.pi ** -0.5 * 0.015625, rel=1e-12)


def test_eval_symmetry_and_positivity(rng):
    params = KernelParams(t=0.03, k=2)
    X = rng.uniform(-1, 1, size=(50, 2))
    Y = X + rng.uniform(-0.4, 0.4, size=(50, 2))
    fwd = eval_Rt(X, Y, params)
    bwd = eval_Rt(Y, X, params)
    assert np.array_equal(fwd, bwd)
    assert np.all(fwd >= 0.0)


def test_support_radius_is_sharp():
    params = KernelParams(t=0.04, k=1)
    x = np.array([0.0])
    r = params.support_radius
    assert eval_Rt(x, np.array([r * (1 - 1e-12)]), params) > 0.0
    assert eval_Rt(x, np.array([r]), params) == 0.0
    assert eval_Rt(x, np.array([r * 1.5]), params) == 0.0


def test_grad_Rt_hand_value():
    # 1D, x - y = 0.1, t = 0.01 so s = 0.25: coeff = C_t R'(0.25) / (2t)
    params = KernelParams(t=0.01, k=1)
    x, y = np.array([0.6]), np.array([0.5])
    g = grad_Rt_x(x, y, params)
    expected = params.C_t * (-1.6875) * (0.1 / 0.02)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(expected, rel=1e-13)
    # coincident points: exactly the zero vector
    assert np.array_equal(grad_Rt_x(x, x, params), np.zeros(1))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradients_match_finite_differences(profile, dim, rng):
    t = 0.02
    params = KernelParams(t=t, k=dim)
    step = 1e-6 * math.sqrt(t)
    y = rng.uniform(-0.2, 0.2, size=dim)
    for _ in range(20):
        # keep s away from 0 and 1 where R' passes through small values
        offset = rng.uniform(0.3, 0.9) * params.support_radius
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        x = y + offset * direction
        for fn, gfn in ((eval_Rt, grad_Rt_x), (eval_Rbar_t, grad_Rbar_t_x)):
            g = gfn(x, y, params, profile)
            fd = np.empty(dim)
            for a in range(dim):
                e = np.zeros(dim)
                e[a] = step
                fd[a] = (fn(x + e, y, params, profile)
                         - fn(x - e, y, params, profile)) / (2.0 * step)
            scale = max(np.max(np.abs(g)), params.C_t / math.sqrt(t))
            assert np.max(np.abs(g - fd)) <= 1e-5 * scale


def test_grad_Rbar_consistent_with_R():
    # grad of Rbar_t must reuse R itself: -C_t R(s) (x-y) / 2t, bit-for-bit
    params = KernelParams(t=0.09, k=2)
    x = np.array([0.31, -0.2])
    y = np.array([0.05, 0.17])
    diff = x - y
    s = np.dot(diff, diff) / (4.0 * params.t)
    expected = -params.C_t * float(cubic_profile.R(np.array([s]))[0]) \
        / (2.0 * params.t) * diff
    assert np.array_equal(grad_Rbar_t_x(x, y, params), expected)


def test_get_profile_roundtrip():
    assert set(PROFILE_NAMES) == {"cubic", "truncated_gaussian"}
    for name in PROFILE_NAMES:
        assert get_profile(name).name == name
    with pytest.raises(ValueError, match="unknown kernel profile"):
        get_profile("biharmonic")
