import math

import numpy as np
import pytest

from pim.kernel import (KernelParams, cubic_profile, eval_Rbar_t,
                        truncated_gaussian_profile)
from oracles import apply_Kth, apply_Lth, apply_Lth_all
from pim.operators import energy_identity, laplacian_matrix, oracle_Lt, oracle_v
from pim.pointcloud import ManifoldSpec, PointCloud, generate


def two_point_cloud():
    return PointCloud(points=np.array([[0.0], [0.1]]), intrinsic_dim=1,
                      boundary_indices=np.array([], dtype=int),
                      volume_weights=np.array([0.5, 0.5]),
                      area_weights=np.array([]))


def test_constant_field_annihilated(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    u = np.full(interval_cloud.n, 3.7)
    for i in (0, 13, 50, 100):
        assert apply_Lth(interval_cloud, params, cubic_profile, u, i) == 0.0


def test_two_point_hand_value():
    cloud = two_point_cloud()
    params = KernelParams(t=0.01, k=1)
    u = np.array([1.0, 0.0])
    got = apply_Lth(cloud, params, cubic_profile, u, 0)
    expected = (1.0 / 0.01) * (0.04 * math.pi) ** -0.5 * 0.421875 * 0.5
    assert got == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(59.5044, abs=5e-5)


def test_linearity(interval_cloud, rng):
    params = KernelParams(t=0.02, k=1)
    u = rng.normal(size=interval_cloud.n)
    v = rng.normal(size=interval_cloud.n)
    for i in (3, 42, 77):
        lu = apply_Lth(interval_cloud, params, cubic_profile, u, i)
        lv = apply_Lth(interval_cloud, params, cubic_profile, v, i)
        luv = apply_Lth(interval_cloud, params, cubic_profile, 2.0 * u + v, i)
        assert luv == pytest.approx(2.0 * lu + lv, rel=1e-12, abs=1e-12)
        assert apply_Lth(interval_cloud, params, cubic_profile, -u, i) == -lu


def test_apply_all_matches_pointwise(disk_cloud, rng):
    params = KernelParams(t=0.05, k=2)
    u = rng.normal(size=disk_cloud.n)
    full = apply_Lth_all(disk_cloud, params, cubic_profile, u)
    for i in (0, 9, 101, disk_cloud.n - 1):
        assert full[i] == pytest.approx(
            apply_Lth(disk_cloud, params, cubic_profile, u, i),
            rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("name", ["interval", "disk", "rectangle", "spherical_cap"])
@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
def test_assembled_laplacian_matches_the_dense_reference(all_clouds, name, profile, rng):
    # the boundary samples carry no penalty in L: only the dense pairwise sum is left
    cloud = all_clouds[name]
    params = KernelParams(t=0.03, k=cloud.intrinsic_dim)
    u = rng.normal(size=cloud.n)
    got = laplacian_matrix(cloud, params, profile) @ u
    want = apply_Lth_all(cloud, params, profile, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_Kth_zero_field(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    u = np.zeros(interval_cloud.n)
    for i in (0, 50, 100):
        assert apply_Kth(interval_cloud, params, cubic_profile, 0.1, u, i) == 0.0


def test_Kth_constant_reduces_to_boundary_sum(interval_cloud):
    params = KernelParams(t=0.04, k=1)
    beta = 0.2
    c = -2.5
    u = np.full(interval_cloud.n, c)
    for i in (0, 2, 50):
        got = apply_Kth(interval_cloud, params, cubic_profile, beta, u, i)
        expected = 0.0
        for l, j in enumerate(interval_cloud.boundary_indices):
            rbar = eval_Rbar_t(interval_cloud.points[i],
                               interval_cloud.points[j], params)
            expected += (2.0 * c / beta) * rbar * interval_cloud.area_weights[l]
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_Kth_equals_Lth_plus_independent_boundary_sum(disk_cloud, rng):
    params = KernelParams(t=0.05, k=2)
    beta = 0.3
    u = rng.normal(size=disk_cloud.n)
    for i in (1, 55, 222):
        lth = apply_Lth(disk_cloud, params, cubic_profile, u, i)
        extra = 0.0
        # reversed loop order on purpose: independent accumulation
        for l in range(len(disk_cloud.boundary_indices) - 1, -1, -1):
            j = disk_cloud.boundary_indices[l]
            rbar = eval_Rbar_t(disk_cloud.points[i], disk_cloud.points[j],
                               params)
            extra += (2.0 / beta) * rbar * u[j] * disk_cloud.area_weights[l]
        got = apply_Kth(disk_cloud, params, cubic_profile, beta, u, i)
        assert got == pytest.approx(lth + extra, rel=1e-12, abs=1e-12)


def test_penalty_part_ignores_interior_values(interval_cloud, rng):
    params = KernelParams(t=0.01, k=1)
    beta = 0.15
    u = rng.normal(size=interval_cloud.n)
    v = u.copy()
    interior = np.setdiff1d(np.arange(interval_cloud.n),
                            interval_cloud.boundary_indices)
    v[interior] += rng.normal(size=interior.size)
    # identical boundary values -> identical penalty addend; the addend is
    # recoverable up to the single rounding of the final addition
    for i in (0, 5, 12):
        du = apply_Kth(interval_cloud, params, cubic_profile, beta, u, i) \
            - apply_Lth(interval_cloud, params, cubic_profile, u, i)
        dv = apply_Kth(interval_cloud, params, cubic_profile, beta, v, i) \
            - apply_Lth(interval_cloud, params, cubic_profile, v, i)
        assert du == pytest.approx(dv, rel=1e-12)
    # rows outside the boundary kernel's support: addend is exactly zero,
    # so the two operators agree bit-for-bit
    for i in (30, 50, 70):
        ku = apply_Kth(interval_cloud, params, cubic_profile, beta, u, i)
        assert ku == apply_Lth(interval_cloud, params, cubic_profile, u, i)


def test_Kth_equals_Lth_for_zero_boundary_values(interval_cloud, rng):
    # zero on the boundary kills the penalty sum identically, every row
    params = KernelParams(t=0.01, k=1)
    u = rng.normal(size=interval_cloud.n)
    u[interval_cloud.boundary_indices] = 0.0
    for i in (0, 1, 17, 60, 100):
        ku = apply_Kth(interval_cloud, params, cubic_profile, 0.07, u, i)
        lu = apply_Lth(interval_cloud, params, cubic_profile, u, i)
        assert ku == lu


@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
def test_energy_identity_and_nonnegativity(profile, interval_cloud,
                                            disk_cloud, rng):
    for cloud, k in ((interval_cloud, 1), (disk_cloud, 2)):
        params = KernelParams(t=0.03, k=k)
        for _ in range(20):
            u = rng.normal(size=cloud.n)
            lhs, rhs = energy_identity(cloud, params, profile, u)
            norm2 = float(np.dot(u, u))
            assert rhs >= 0.0
            assert lhs >= -1e-12 * norm2
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_oracle_constant_is_zero():
    fine = generate(ManifoldSpec.interval(0.0, 1.0, 1001))
    params = KernelParams(t=0.004, k=1)
    got = oracle_Lt(lambda Y: np.full(len(Y), 2.0), np.array([0.5]),
                    fine, params, cubic_profile)
    assert got == 0.0


def test_oracle_odd_symmetry():
    # u(y) = y about an interior point: integrand odd, integral ~ 0
    fine = generate(ManifoldSpec.interval(0.0, 1.0, 4001))
    params = KernelParams(t=1e-3, k=1)
    got = oracle_Lt(lambda Y: Y[:, 0], np.array([0.5]), fine, params,
                    cubic_profile)
    assert abs(got) <= 1e-8


def test_oracle_quadratic_identity():
    # L_t applied to y^2 at interior x equals -2 * integral of Rbar_t
    fine = generate(ManifoldSpec.interval(0.0, 1.0, 4001))
    params = KernelParams(t=0.004, k=1)
    x = np.array([0.5])
    lhs = oracle_Lt(lambda Y: Y[:, 0] ** 2, x, fine, params, cubic_profile)
    rbar = eval_Rbar_t(np.broadcast_to(x, fine.points.shape), fine.points,
                       params)
    wbar = float(np.sum(rbar * fine.volume_weights))
    assert lhs == pytest.approx(-2.0 * wbar, rel=1e-5)


def test_oracle_v_constant_and_bounds(rng):
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 501))
    params = KernelParams(t=0.002, k=1)
    x = np.array([0.31])
    c = 4.25
    got = oracle_v(np.full(cloud.n, c), x, cloud, params, cubic_profile)
    assert got == pytest.approx(c, rel=1e-14)
    u = rng.normal(size=cloud.n)
    v = oracle_v(u, x, cloud, params, cubic_profile)
    assert u.min() <= v <= u.max()


def test_field_of_the_wrong_length_is_refused(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    with pytest.raises(ValueError, match=r"^field length 3 != cloud size 101$"):
        apply_Lth(interval_cloud, params, cubic_profile, np.ones(3), 0)


def test_oracle_v_outside_every_support():
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 101))
    params = KernelParams(t=1e-3, k=1)
    with pytest.raises(ValueError, match="^x is outside the kernel support of every sample$"):
        oracle_v(np.ones(cloud.n), np.array([5.0]), cloud, params, cubic_profile)


def test_oracle_v_linear_midpoint():
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 2001))
    params = KernelParams(t=1e-3, k=1)
    got = oracle_v(cloud.points[:, 0], np.array([0.5]), cloud, params,
                   cubic_profile)
    assert got == pytest.approx(0.5, abs=1e-6)


def test_discrete_vs_integral_consistency():
    # fixed t and smooth u: the cloud sum approaches the dense-quadrature
    # integral as the working cloud refines (oracle on an 8x finer cloud)
    t = 0.01
    u_fn = lambda Y: np.sin(2.0 * Y[:, 0])
    diffs = []
    for n in (101, 201):
        cloud = generate(ManifoldSpec.interval(0.0, 1.0, n))
        fine = generate(ManifoldSpec.interval(0.0, 1.0, 8 * (n - 1) + 1))
        params = KernelParams(t=t, k=1)
        i = n // 2
        discrete = apply_Lth(cloud, params, cubic_profile,
                             u_fn(cloud.points), i)
        integral = oracle_Lt(u_fn, cloud.points[i], fine, params,
                             cubic_profile)
        diffs.append(abs(discrete - integral))
    assert diffs[1] < diffs[0]


def test_smoothed_gradient_energy_diagnostic(capsys):
    """Exploratory: compare the quadratic form against the smoothed-field
    gradient energy.  Recorded for inspection, not gated beyond sanity."""
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 401))
    params = KernelParams(t=0.004, k=1)
    u = np.sin(math.pi * cloud.points[:, 0])
    lhs, _ = energy_identity(cloud, params, cubic_profile, u)

    # gradient energy of the smoothed average v at interior quadrature nodes
    xs = cloud.points[40:-40]
    vs = np.array([oracle_v(u, x, cloud, params, cubic_profile) for x in xs])
    grad = np.gradient(vs, xs[:, 0], edge_order=2)
    energy = float(np.trapezoid(grad ** 2, xs[:, 0]))

    assert np.isfinite(lhs) and np.isfinite(energy)
    assert lhs >= 0.0 and energy >= 0.0
    with capsys.disabled():
        print(f"\n[diagnostic] quadratic form={lhs:.6f}, "
              f"smoothed gradient energy={energy:.6f}, "
              f"ratio={lhs / energy:.3f}")
