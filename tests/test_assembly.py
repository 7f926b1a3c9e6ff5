import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import mmread, mmwrite

from pim.analysis import Coupling, get_case
from oracles import assemble_direct, boundary_column_vector
from pim.assembly import (ROW_BLOCK, LinearSystem, _segment_sums, assemble,
                          dump_matrixmarket)
from pim.kernel import (KernelParams, cubic_profile, eval_Rbar_t, eval_Rt,
                        truncated_gaussian_profile)
from pim.neighbors import NeighborIndex
from pim.pointcloud import ManifoldSpec, PointCloud, generate
from pim.solve import _true_residual, solve


def make_system(cloud, t, beta, profile=cubic_profile, **kw):
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = np.sin(3.0 * cloud.points[:, 0])
    b = np.cos(cloud.boundary_points[:, 0])
    return assemble(cloud, params, profile, beta, f, b, **kw), params


def assert_same_csr(a, c):
    """The CSR arrays of ``a`` and ``c`` agree in dtype and byte for byte."""
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(c, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


# ---------------------------------------------------------------------------
# the two assembly paths agree bit-for-bit
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(lengths=st.lists(st.integers(0, 1200) | st.sampled_from([0, 1, 2, 7, 8, 9, 127, 128, 129]),
                        min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), special=st.sampled_from([0.0, 0.01, 0.3, 1.0]))
def test_segment_sums_equal_reduce_of_each_slice(lengths, seed, special):
    # the zero-led reduceat must give the bits np.add.reduce gives each row's
    # slice on its own, including signed zeros, infinities, NaN and subnormals
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sum(lengths)) * 10.0 ** rng.integers(-300, 300, sum(lengths))
    mask = rng.random(x.size) < special
    x[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [np.add.reduce(x[lo:lo + k]) for lo, k in zip(starts, lengths)]
        got = _segment_sums(x, starts)
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("spec,t", [
    (ManifoldSpec.interval(0.0, 1.0, 301), 0.004),
    (ManifoldSpec.disk(420), 0.03),
    (ManifoldSpec.spherical_cap(0.5, 380), 0.03),
])
def test_indexed_equals_brute(spec, t, profile):
    cloud = generate(spec, seed=9, jitter=0.15)
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = cloud.points[:, 0] ** 2
    b = np.ones(len(cloud.boundary_indices))
    fast = assemble(cloud, params, profile, 0.1, f, b, dense_cutoff=cloud.n)
    slow = assemble_direct(cloud, params, profile, 0.1, f, b, dense_cutoff=cloud.n)
    assert_same_csr(fast.matrix, slow.matrix)
    assert np.array_equal(fast.rhs, slow.rhs)


def test_small_clouds_take_the_index_by_default(monkeypatch, interval_cloud):
    # the direct scan is the oracle only, even for a 101-point cloud
    joins = []
    real = NeighborIndex.self_join
    monkeypatch.setattr(NeighborIndex, "self_join",
                        lambda self: joins.append(self) or real(self))
    make_system(interval_cloud, 0.004, 0.1)
    assert len(joins) == 1


@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("spec", [ManifoldSpec.disk(1000),
                                  ManifoldSpec.spherical_cap(0.5, 1000)],
                         ids=["disk", "cap"])
def test_indexed_equals_brute_csr_over_row_blocks(spec, profile):
    # jittered 2-d and 3-d clouds spanning several row blocks, CSR storage
    cloud = generate(spec, seed=5, jitter=0.25)
    assert cloud.n > 3 * ROW_BLOCK
    t = Coupling().t_of(cloud.metadata["h"])
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = np.cos(cloud.points[:, 0]) + cloud.points[:, 1]
    b = np.sin(cloud.boundary_points[:, 1]) + 0.5
    fast = assemble(cloud, params, profile, 0.3, f, b, dense_cutoff=0)
    slow = assemble_direct(cloud, params, profile, 0.3, f, b, dense_cutoff=0)
    assert not fast.meta["dense"] and not slow.meta["dense"]
    assert_same_csr(fast.matrix, slow.matrix)
    assert np.array_equal(fast.rhs, slow.rhs)
    # every row holds its own point, columns ascend within each row
    for i in (0, ROW_BLOCK - 1, ROW_BLOCK, cloud.n - 1):
        cols = fast.matrix.indices[fast.matrix.indptr[i]:fast.matrix.indptr[i + 1]]
        assert i in cols and np.all(np.diff(cols) > 0)


def assemble_row_by_row(cloud, params, profile, beta, f, b):
    """Reference: each row from its own scan, summed on its own."""
    pts, vw, aw, t = cloud.points, cloud.volume_weights, cloud.area_weights, params.t
    bpos = np.full(cloud.n, -1)
    bpos[cloud.boundary_indices] = np.arange(cloud.boundary_indices.size)
    g = f * vw      # the data terms folded into one Rbar_t weight per sample
    g[cloud.boundary_indices] += (2.0 / beta) * b * aw
    data, indices, indptr, rhs = [], [], [0], []
    for i in range(cloud.n):
        diff = pts - pts[i]
        s = np.einsum("ij,ij->i", diff, diff) * (1.0 / (4.0 * t))
        cols = np.flatnonzero(s < 1.0)
        s = s[cols]
        R, Rbar, _ = profile.terms(s)
        rt, rbar = params.C_t * R, params.C_t * Rbar
        a = rt * vw[cols] / t
        vals = -a
        vals[cols == i] = np.add.reduce(a[cols != i])
        lb = bpos[cols]
        is_b = lb >= 0
        lb = lb[is_b]
        vals[is_b] += (2.0 / beta) * rbar[is_b] * aw[lb]
        rhs.append(np.add.reduce(rbar * g[cols]))
        data.append(vals)
        indices.append(cols)
        indptr.append(indptr[-1] + cols.size)
    return np.concatenate(data), np.concatenate(indices), np.array(indptr), np.array(rhs)


@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("spec", [ManifoldSpec.interval(0.0, 1.0, 301),
                                  ManifoldSpec.disk(1000),
                                  ManifoldSpec.spherical_cap(0.5, 1000)],
                         ids=["interval", "disk", "cap"])
def test_blocks_equal_rows_summed_on_their_own(spec, profile):
    # the block routine's vectorized distances and per-row sums give the
    # bits of a plain loop over rows
    cloud = generate(spec, seed=5, jitter=0.25)
    t = Coupling().t_of(cloud.metadata["h"])
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = np.cos(cloud.points[:, 0]) - 0.5
    b = np.sin(cloud.boundary_points[:, 0]) + 0.5
    beta = Coupling().beta_of(t)
    system = assemble(cloud, params, profile, beta, f, b, dense_cutoff=0)
    data, indices, indptr, rhs = assemble_row_by_row(cloud, params, profile, beta, f, b)
    assert system.matrix.data.tobytes() == data.tobytes()
    assert np.array_equal(system.matrix.indices, indices)
    assert np.array_equal(system.matrix.indptr, indptr)
    assert system.rhs.tobytes() == rhs.tobytes()


# ---------------------------------------------------------------------------
# memory: the candidate graph is compacted into the matrix's column array
# ---------------------------------------------------------------------------

def traced_peak(fn):
    """``fn()`` and the peak of the memory tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def coupled_assembly(cloud):
    """Assembly of ``cloud`` under the default coupling, CSR storage, by
    ``assemble`` or another routine of its signature."""
    params = KernelParams(t=Coupling().t_of(cloud.metadata["h"]), k=cloud.intrinsic_dim)
    f = np.cos(cloud.points[:, 0]) + cloud.points[:, 1]
    b = np.sin(cloud.boundary_points[:, 1]) + 0.5
    return params, lambda by=assemble: by(cloud, params, cubic_profile, 0.3, f, b,
                                          dense_cutoff=0)


def with_shells(cloud, rng, centres=6):
    """``cloud`` plus points at exactly its support radius and one ulp either
    side of it around a few central samples, so the exact cut s < 1 drops
    candidates."""
    radius = coupled_assembly(cloud)[0].support_radius
    shells = (np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf))
    inner = np.flatnonzero(np.linalg.norm(cloud.points, axis=1) < 0.5)
    extra = []
    for centre in cloud.points[rng.choice(inner, size=centres, replace=False)]:
        dirs = rng.standard_normal((10, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        extra += [centre + r * u for u in dirs for r in shells]
        extra += [centre + np.array([sign * r, 0.0])
                  for sign in (1.0, -1.0) for r in shells]
    vw = np.full(len(extra), cloud.volume_weights.mean())
    shelled = PointCloud(points=np.vstack([cloud.points, extra]), intrinsic_dim=2,
                         boundary_indices=cloud.boundary_indices,
                         volume_weights=np.concatenate([cloud.volume_weights, vw]),
                         area_weights=cloud.area_weights)
    shelled.metadata["h"] = cloud.metadata["h"]
    return shelled


def pairs_near_support(cloud, radius):
    """Ordered pairs at distance <= radius * (1 + 1e-12), all of which the
    tree proposes; the open support s < 1 keeps fewer when points sit at the
    radius or one ulp beyond it."""
    idx = NeighborIndex(cloud.points, radius * (1.0 + 1e-12))
    return sum(row.size for row in idx.query_self())


def matrix_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


@pytest.mark.parametrize("spec,jitter,shells", [
    (ManifoldSpec.disk(4000), 0.25, False),
    (ManifoldSpec.spherical_cap(0.5, 4000), 0.0, False),
    (ManifoldSpec.disk(4000), 0.25, True),
], ids=["jittered-disk", "cap", "disk-with-shells"])
def test_assembly_peak_memory_near_the_matrix(spec, jitter, shells, rng):
    # no key list, second column array or trailing copy beside the matrix:
    # its arrays plus the row-block temporaries stay within 1.5x its size
    cloud = generate(spec, seed=3, jitter=jitter)
    if shells:
        cloud = with_shells(cloud, rng)
    params, build = coupled_assembly(cloud)
    system, peak = traced_peak(build)
    mat = system.matrix
    assert mat.data.shape == mat.indices.shape == (mat.nnz,)
    if shells:
        assert mat.nnz < pairs_near_support(cloud, params.support_radius)
    assert peak <= 1.5 * matrix_bytes(mat)


def test_exact_cut_drops_candidates_in_place(rng):
    # the kept columns overwrite the candidate graph and the arrays shrink to
    # nnz; the result still equals the direct scan byte for byte
    cloud = with_shells(generate(ManifoldSpec.disk(900), seed=4, jitter=0.25), rng)
    params, build = coupled_assembly(cloud)
    fast, slow = build(), build(assemble_direct)
    nnz = fast.matrix.nnz
    assert nnz < pairs_near_support(cloud, params.support_radius)  # the cut dropped some
    assert_same_csr(fast.matrix, slow.matrix)
    assert fast.matrix.data.shape == fast.matrix.indices.shape == (nnz,)
    assert fast.rhs.tobytes() == slow.rhs.tobytes()


def test_dense_and_sparse_store_identical_values(interval_cloud):
    # the cutoff flags the system for the direct solver; the storage is CSR
    # either way, with the same arrays
    sys_d, _ = make_system(interval_cloud, 0.01, 0.2, dense_cutoff=interval_cloud.n)
    sys_s, _ = make_system(interval_cloud, 0.01, 0.2, dense_cutoff=0)
    assert sys_d.meta["dense"] and not sys_s.meta["dense"]
    assert isinstance(sys_d.matrix, sp.csr_matrix) and isinstance(sys_s.matrix, sp.csr_matrix)
    assert_same_csr(sys_d.matrix, sys_s.matrix)
    assert np.array_equal(sys_s.rhs, sys_d.rhs)


def test_dense_cutoff_switch():
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 120))
    sys_small, _ = make_system(cloud, 0.01, 0.2, dense_cutoff=512)
    sys_forced, _ = make_system(cloud, 0.01, 0.2, dense_cutoff=64)
    assert sys_small.meta["dense"]
    assert not sys_forced.meta["dense"]
    assert solve(sys_small).method == "dense-lu"
    assert solve(sys_forced).method == "iterative"


# ---------------------------------------------------------------------------
# entry-level structure
# ---------------------------------------------------------------------------

def test_entries_match_hand_loop(interval_cloud):
    t, beta = 0.01, 0.3
    system, params = make_system(interval_cloud, t, beta, dense_cutoff=interval_cloud.n)
    pts = interval_cloud.points
    vw = interval_cloud.volume_weights
    bidx = list(interval_cloud.boundary_indices)
    i = 3
    for j in range(interval_cloud.n):
        rt = eval_Rt(pts[i], pts[j], params)
        expected = 0.0
        if j != i:
            expected -= rt * vw[j] / t
        else:
            total = 0.0
            for jj in range(interval_cloud.n):
                if jj != i:
                    total += eval_Rt(pts[i], pts[jj], params) * vw[jj] / t
            expected += total
        if j in bidx:
            l = bidx.index(j)
            expected += (2.0 / beta) * eval_Rbar_t(pts[i], pts[j], params) \
                * interval_cloud.area_weights[l]
        assert system.matrix[i, j] == pytest.approx(expected, rel=1e-12,
                                                    abs=1e-15)


def test_far_entries_exactly_zero(interval_cloud):
    system, params = make_system(interval_cloud, 0.004, 0.1, dense_cutoff=interval_cloud.n)
    pts = interval_cloud.points[:, 0]
    sep = np.abs(pts[:, None] - pts[None, :])
    outside = sep > params.support_radius
    assert np.all(system.matrix.toarray()[outside] == 0.0)


def test_row_sum_equals_boundary_column(all_clouds):
    for name, cloud in all_clouds.items():
        t = 0.01 if cloud.intrinsic_dim == 1 else 0.05
        beta = 0.2
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        f = np.zeros(cloud.n)
        b = np.zeros(len(cloud.boundary_indices))
        system = assemble(cloud, params, cubic_profile, beta, f, b, dense_cutoff=cloud.n)
        g = boundary_column_vector(cloud, params, cubic_profile, beta)
        row_sums = system.matrix @ np.ones(cloud.n)
        # rounding-scale agreement: the L-part cancels exactly in exact
        # arithmetic, so the defect per row is bounded by the row magnitude
        scale = abs(system.matrix) @ np.ones(cloud.n)
        assert scale.shape == row_sums.shape == (cloud.n,)
        eps = np.finfo(float).eps
        assert np.all(np.abs(row_sums - g) <= 64.0 * eps * scale), name


def test_rhs_zero_for_zero_data(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    system = assemble(interval_cloud, params, cubic_profile, 0.1,
                      np.zeros(interval_cloud.n),
                      np.zeros(len(interval_cloud.boundary_indices)))
    assert np.array_equal(system.rhs, np.zeros(interval_cloud.n))


def test_constant_data_residual_is_rounding_level(all_clouds):
    c = 2.25
    for name, cloud in all_clouds.items():
        t = 0.01 if cloud.intrinsic_dim == 1 else 0.05
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        system = assemble(cloud, params, cubic_profile, 0.15,
                          np.zeros(cloud.n),
                          np.full(len(cloud.boundary_indices), c),
                          dense_cutoff=cloud.n)
        defect = system.matrix @ np.full(cloud.n, c) - system.rhs
        scale = abs(system.matrix) @ np.full(cloud.n, abs(c))
        assert scale.shape == defect.shape == (cloud.n,)
        eps = np.finfo(float).eps
        assert np.all(np.abs(defect) <= 64.0 * eps * scale), name


def test_rhs_composition(interval_cloud):
    # rhs = penalty(b) + source(f): build each part separately and compare
    params = KernelParams(t=0.01, k=1)
    beta = 0.2
    m = len(interval_cloud.boundary_indices)
    f = np.cos(2.0 * interval_cloud.points[:, 0])
    b = np.linspace(1.0, 2.0, m)
    both = assemble(interval_cloud, params, cubic_profile, beta, f, b)
    only_b = assemble(interval_cloud, params, cubic_profile, beta,
                      np.zeros(interval_cloud.n), b)
    only_f = assemble(interval_cloud, params, cubic_profile, beta,
                      f, np.zeros(m))
    assert np.allclose(both.rhs, only_b.rhs + only_f.rhs, rtol=1e-14,
                       atol=1e-14)
    # the source term integrates f against the tail kernel, volume-weighted
    i = 40
    pts = interval_cloud.points
    expected = sum(
        eval_Rbar_t(pts[i], pts[j], params) * f[j]
        * interval_cloud.volume_weights[j]
        for j in range(interval_cloud.n))
    assert only_f.rhs[i] == pytest.approx(expected, rel=1e-12)


def test_graph_laplacian_crosscheck():
    # uniform weights V_j = 1/n turn the non-penalty block into the familiar
    # degree-minus-adjacency form; build that independently and compare
    n = 60
    pts = np.linspace(0.0, 1.0, n)[:, None]
    from pim.pointcloud import PointCloud
    cloud = PointCloud(points=pts, intrinsic_dim=1,
                       boundary_indices=np.array([], dtype=int),
                       volume_weights=np.full(n, 1.0 / n),
                       area_weights=np.array([]))
    t = 0.01
    params = KernelParams(t=t, k=1)
    system = assemble(cloud, params, cubic_profile, 1.0, np.zeros(n),
                      np.array([]), dense_cutoff=n)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                W[i, j] = eval_Rt(pts[i], pts[j], params) / (t * n)
    L = np.diag(W.sum(axis=1)) - W
    assert np.allclose(system.matrix.toarray(), L, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# validation and plumbing
# ---------------------------------------------------------------------------

def test_rejects_bad_inputs(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    n = interval_cloud.n
    m = len(interval_cloud.boundary_indices)
    with pytest.raises(ValueError):
        assemble(interval_cloud, params, cubic_profile, 0.0,
                 np.zeros(n), np.zeros(m))
    with pytest.raises(ValueError):
        assemble(interval_cloud, params, cubic_profile, -0.5,
                 np.zeros(n), np.zeros(m))
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {beta}"):
            assemble(interval_cloud, params, cubic_profile, beta,
                     np.zeros(n), np.zeros(m))
    with pytest.raises(ValueError):
        assemble(interval_cloud, params, cubic_profile, 0.1,
                 np.zeros(n - 1), np.zeros(m))
    with pytest.raises(ValueError):
        assemble(interval_cloud, params, cubic_profile, 0.1,
                 np.zeros(n), np.zeros(m + 2))


@pytest.mark.parametrize("boundary", [[0, 51], [0, 50]], ids=["rim", "interior"])
def test_rejects_isolated_point(boundary):
    # the point at 0.9 has no other point within the support radius 0.04,
    # whether it lies on the boundary list or not
    pts = np.concatenate([np.linspace(0.0, 0.5, 51), [0.9]])[:, None]
    cloud = PointCloud(points=pts, intrinsic_dim=1,
                       boundary_indices=np.array(boundary),
                       volume_weights=np.full(52, 0.01),
                       area_weights=np.ones(2))
    params = KernelParams(t=0.0004, k=1)
    for build in (assemble, assemble_direct):
        with pytest.raises(ValueError, match=r"1 point\(s\), first index 51"):
            build(cloud, params, cubic_profile, 0.01, np.ones(52), np.zeros(2))


@pytest.mark.parametrize("name", ["interval", "disk"])
def test_tiny_t_reaches_the_isolated_point_check_without_overflow(all_clouds, name):
    # at t = 1e-300 no point has another within the support, and a self
    # entry's R_t V / t would overflow: the fill must zero it first
    cloud = all_clouds[name]
    params = KernelParams(t=1e-300, k=cloud.intrinsic_dim)
    f, b = np.ones(cloud.n), np.ones(cloud.boundary_indices.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{cloud.n} point\(s\), first index 0, have no other"):
            assemble(cloud, params, cubic_profile, 1.0, f, b)


def test_metadata(interval_cloud):
    # meta holds what solve reads and nothing else: t, beta, n, h and the
    # profile are the caller's own arguments, and the matrix statistics the
    # system's, so a copy here would only be a second source for them
    for dense_cutoff in (interval_cloud.n, 0):      # flagged dense, then iterative
        system, params = make_system(interval_cloud, 0.01, 0.25, dense_cutoff=dense_cutoff)
        meta = system.meta
        assert set(meta) == {"dense", "boundary_points", "points", "support_radius"}
        assert meta["dense"] == bool(dense_cutoff)
        assert meta["support_radius"] == params.support_radius
        assert meta["boundary_points"] == len(interval_cloud.boundary_indices)
        assert meta["points"] is interval_cloud.points
        assert system.n == interval_cloud.n


@pytest.mark.parametrize("dense_cutoff", [10 ** 6, 0], ids=["dense-flagged", "iterative"])
def test_diagonal_is_the_matrix_diagonal(all_clouds, dense_cutoff):
    # the fill keeps the diagonal it writes, so GMRES need not scan the matrix for it
    for name, cloud in all_clouds.items():
        system, _ = make_system(cloud, 0.01, 0.25, dense_cutoff=dense_cutoff)
        assert system.meta["dense"] == bool(dense_cutoff)
        assert system.diagonal.tobytes() == system.matrix.diagonal().tobytes(), name
        # a system built by hand takes the matrix's own
        hand = LinearSystem(matrix=system.matrix, rhs=system.rhs)
        assert hand.diagonal.tobytes() == system.matrix.diagonal().tobytes(), name


def test_diagonal_must_fit(interval_cloud):
    system, _ = make_system(interval_cloud, 0.01, 0.25)
    with pytest.raises(ValueError, match=r"diagonal of shape \(100,\) does not fit"):
        LinearSystem(matrix=system.matrix, rhs=system.rhs, diagonal=system.diagonal[1:])


def test_residual_norm_definition(interval_cloud):
    system, _ = make_system(interval_cloud, 0.01, 0.25)
    x = np.ones(system.n)
    expected = np.linalg.norm(system.matrix @ x - system.rhs) \
        / max(np.linalg.norm(system.rhs), np.finfo(float).tiny)
    assert _true_residual(system, x) == pytest.approx(expected, rel=1e-15)


def test_matrixmarket_dump(tmp_path, interval_cloud):
    system, _ = make_system(interval_cloud, 0.01, 0.25, dense_cutoff=0)
    path = tmp_path / "system.mtx"
    dump_matrixmarket(system, path)
    back = mmread(path)
    assert np.allclose(back.toarray(), system.matrix.toarray(),
                       rtol=0.0, atol=0.0)


@pytest.mark.parametrize("name, n", [("interval_sine", 501), ("rectangle_quadratic", 400),
                                     ("disk_paraboloid", 284)])
def test_matrixmarket_dump_of_direct_sized_systems_is_the_dense_one(tmp_path, name, n):
    # the file lists exactly the nonzero entries in row order, as mmwrite writes
    # them from the dense matrix: no explicitly stored zero slips in
    case = get_case(name)
    cloud = generate(case.spec.with_resolution(n), seed=0, jitter=0.25)
    t = Coupling().t_of(cloud.metadata["h"])
    system = assemble(cloud, KernelParams(t=t, k=cloud.intrinsic_dim), cubic_profile,
                      Coupling().beta_of(t), case.f(cloud.points),
                      case.b(cloud.boundary_points))
    assert system.meta["dense"]
    dump_matrixmarket(system, tmp_path / "csr.mtx")
    mmwrite(tmp_path / "dense.mtx", sp.coo_matrix(system.matrix.toarray()))
    assert (tmp_path / "csr.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()
