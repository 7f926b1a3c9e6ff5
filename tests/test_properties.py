"""Property tests over random jittered clouds (hypothesis, derandomized)."""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pim.analysis import Coupling
from pim.assembly import assemble, boundary_column_vector
from pim.interpolate import Interpolant
from pim.kernel import (KernelParams, KernelProfile, cubic_profile,
                        truncated_gaussian_profile)
from pim.pointcloud import ManifoldSpec, PointCloud, generate
from pim.solve import solve

SPECS = {
    "interval": lambda n: ManifoldSpec.interval(0.0, 1.0, n),
    "disk": ManifoldSpec.disk,
    "rectangle": lambda n: ManifoldSpec.rectangle(1.0, 1.0, n),
    "cap": lambda n: ManifoldSpec.spherical_cap(0.5, n),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=12,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


@dataclasses.dataclass
class Problem:
    cloud: PointCloud
    params: KernelParams
    profile: KernelProfile
    beta: float
    rng: np.random.Generator


@st.composite
def problems(draw):
    shape = draw(st.sampled_from(sorted(SPECS)))
    n = draw(st.integers(min_value=80, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    jitter = draw(st.floats(min_value=0.0, max_value=0.3))
    profile = draw(st.sampled_from([cubic_profile, truncated_gaussian_profile]))
    cloud = generate(SPECS[shape](n), seed=seed, jitter=jitter)
    coupling = Coupling()
    t = coupling.t_of(cloud.metadata["h"])
    return Problem(cloud=cloud, params=KernelParams(t=t, k=cloud.intrinsic_dim),
                   profile=profile, beta=coupling.beta_of(t),
                   rng=np.random.default_rng(seed))


def data(p: Problem):
    f = p.rng.standard_normal(p.cloud.n)
    b = p.rng.standard_normal(p.cloud.boundary_indices.size)
    return f, b


@PROPERTY
@given(problems())
def test_matrix_times_ones_is_boundary_column(p):
    system = assemble(p.cloud, p.params, p.profile, p.beta, *data(p))
    g = boundary_column_vector(p.cloud, p.params, p.profile, p.beta)
    row_sums = system.matrix @ np.ones(p.cloud.n)
    scale = np.asarray(abs(system.matrix).sum(axis=1)).ravel()
    assert np.all(np.abs(row_sums - g) <= 64.0 * np.finfo(float).eps * scale)


@PROPERTY
@given(problems())
def test_indexed_and_brute_assembly_bit_identical(p):
    f, b = data(p)
    fast = assemble(p.cloud, p.params, p.profile, p.beta, f, b,
                    use_index=True, dense_cutoff=0)
    slow = assemble(p.cloud, p.params, p.profile, p.beta, f, b,
                    use_index=False, dense_cutoff=0)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(fast.matrix, name), getattr(slow.matrix, name))
    assert np.array_equal(fast.rhs, slow.rhs)


@PROPERTY
@given(problems())
def test_reconstruction_interpolates_the_samples(p):
    f, b = data(p)
    report = solve(assemble(p.cloud, p.params, p.profile, p.beta, f, b))
    interp = Interpolant(cloud=p.cloud, params=p.params, profile=p.profile,
                         beta=p.beta, u=report.solution, f=f, b=b)
    gap = np.abs(interp.eval_many(p.cloud.points) - interp.u)
    assert np.all(gap <= 1e-9 * (1.0 + np.abs(interp.u)))


@PROPERTY
@given(problems())
def test_kernel_laplacian_quadratic_form_nonnegative(p):
    # with the boundary list emptied the assembled matrix is the kernel
    # Laplacian L alone, and sum_i V_i u_i (L u)_i is a sum of squares
    cloud = dataclasses.replace(p.cloud, boundary_indices=np.array([], dtype=int),
                                area_weights=np.array([]))
    L = assemble(cloud, p.params, p.profile, p.beta, np.zeros(cloud.n),
                 np.array([]), dense_cutoff=cloud.n).matrix
    vw = cloud.volume_weights
    for _ in range(4):
        u = p.rng.standard_normal(cloud.n)
        form = float(np.sum(vw * u * (L @ u)))
        scale = float(np.sum(np.abs(vw * u) * (np.abs(L) @ np.abs(u))))
        assert form >= -1e-12 * scale
