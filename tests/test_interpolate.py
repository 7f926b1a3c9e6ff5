import math

import numpy as np
import pytest

from pim import neighbors
from pim.analysis import (get_case, h1_error, lemma_norm_check,
                          solve_case_on_cloud)
from pim.interpolate import CHUNK, Interpolant, OutOfSupport
from oracles import (grad_Rbar_t_x, grad_Rt_x, reconstruction_by_query,
                     reconstruction_sums)
from pim.kernel import KernelParams, cubic_profile, eval_Rbar_t, eval_Rt
from pim.neighbors import NeighborIndex
from pim.pointcloud import PointCloud


def constant_interp(cloud, c, t=0.01, beta=0.2):
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    m = len(cloud.boundary_indices)
    return Interpolant(cloud=cloud, params=params, profile=cubic_profile,
                       beta=beta, u=np.full(cloud.n, c),
                       f=np.zeros(cloud.n), b=np.full(m, c))


@pytest.fixture(scope="module")
def solved_interval(interval_cloud):
    interp, _ = solve_case_on_cloud(get_case("interval_sine"), interval_cloud,
                                    t=0.004, beta=0.1)
    return interp


@pytest.fixture(scope="module")
def solved_disk(disk_cloud):
    interp, _ = solve_case_on_cloud(get_case("disk_paraboloid"), disk_cloud,
                                    t=0.03, beta=0.15)
    return interp


@pytest.fixture(scope="module")
def solved_rectangle(rectangle_cloud):
    # non-zero boundary data b = x^2 + y^2 and corner area weights
    interp, _ = solve_case_on_cloud(get_case("rectangle_quadratic"),
                                    rectangle_cloud, t=0.03, beta=0.15)
    return interp


@pytest.fixture(scope="module")
def solved_cap(cap_cloud):
    interp, _ = solve_case_on_cloud(get_case("cap_linear"), cap_cloud,
                                    t=0.03, beta=0.15)
    return interp


# ---------------------------------------------------------------------------
# the reconstruction interpolates its own samples
# ---------------------------------------------------------------------------

def test_interpolation_identity(solved_interval, solved_disk, solved_cap):
    for interp in (solved_interval, solved_disk, solved_cap):
        got = interp.eval_many(interp.cloud.points)
        gap = np.abs(got - interp.u)
        assert np.all(gap <= 1e-9 * (1.0 + np.abs(interp.u)))


def test_constant_everywhere(interval_cloud):
    c = 3.5
    interp = constant_interp(interval_cloud, c)
    xs = np.linspace(0.05, 0.95, 41)[:, None]
    vals = interp.eval_many(xs)
    assert np.allclose(vals, c, rtol=1e-13, atol=0.0)
    grads = interp.grad_many(xs)
    assert np.max(np.abs(grads)) <= 1e-9


def test_linearity(solved_interval, interval_cloud):
    a = solved_interval
    b = constant_interp(interval_cloud, 2.0, t=a.params.t, beta=a.beta)
    combined = Interpolant(cloud=interval_cloud, params=a.params,
                           profile=a.profile, beta=a.beta,
                           u=a.u + b.u, f=a.f + b.f, b=a.b + b.b)
    xs = np.linspace(0.02, 0.98, 33)[:, None]
    lhs = combined.eval_many(xs)
    rhs = a.eval_many(xs) + b.eval_many(xs)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_matches_reversed_sum_oracle(solved_interval):
    # re-derive I(x) with scalar kernel calls accumulated back-to-front;
    # a transcription error in the vectorized path could not survive this
    interp = solved_interval
    cl, params, t, beta = interp.cloud, interp.params, interp.params.t, interp.beta
    sidx = cl.boundary_indices
    for x in (np.array([0.305]), np.array([0.7201]), np.array([0.015])):
        num, w = 0.0, 0.0
        for j in reversed(range(cl.n)):
            rt = eval_Rt(x, cl.points[j], params)
            rb = eval_Rbar_t(x, cl.points[j], params)
            w += rt * cl.volume_weights[j]
            num += rt * interp.u[j] * cl.volume_weights[j]
            num += t * rb * interp.f[j] * cl.volume_weights[j]
        for l in reversed(range(len(sidx))):
            rb = eval_Rbar_t(x, cl.points[sidx[l]], params)
            num -= (2.0 * t / beta) * rb \
                * (interp.u[sidx[l]] - interp.b[l]) * cl.area_weights[l]
        assert interp.eval(x) == pytest.approx(num / w, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences(solved_interval, solved_disk):
    for interp, queries in (
        (solved_interval, np.linspace(0.1, 0.9, 7)[:, None]),
        (solved_disk, np.array([[0.1, 0.2], [-0.3, 0.1], [0.0, -0.45]])),
    ):
        step = 1e-6 * np.sqrt(interp.params.t)
        grads = interp.grad_many(queries)
        for q, g in zip(queries, grads):
            for axis in range(q.size):
                e = np.zeros(q.size)
                e[axis] = step
                fd = (interp.eval(q + e) - interp.eval(q - e)) / (2.0 * step)
                assert g[axis] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def raw_grads(interp, X):
    """The unprojected gradients: the pair sums' quotient rule alone."""
    return interp._run(interp._queries(X))[1]


def test_cap_gradient_is_tangent(solved_cap):
    pts = solved_cap.cloud.points[::37]
    grads = solved_cap.grad_many(pts)           # the samples lie on a sphere
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    normal_part = np.abs(np.einsum("qd,qd->q", grads, radial))
    mags = np.linalg.norm(grads, axis=1)
    assert np.all(mags > 0.0)
    assert np.all(normal_part <= 1e-10 * mags)
    # unprojected, the gradients keep a normal part
    raw_normal = np.abs(np.einsum("qd,qd->q", raw_grads(solved_cap, pts), radial))
    assert np.max(raw_normal) > np.max(normal_part)


def test_flat_clouds_not_projected(solved_disk):
    pts = np.array([[0.2, 0.1]])
    assert np.array_equal(solved_disk.grad_many(pts), raw_grads(solved_disk, pts))


def linear_interp(cloud):
    """Reconstruction of u = x1 + 2 x2 with no source and exact boundary data."""
    u = cloud.points[:, 0] + 2.0 * cloud.points[:, 1]
    return Interpolant(cloud=cloud, params=KernelParams(t=0.03, k=cloud.intrinsic_dim),
                       profile=cubic_profile, beta=0.15, u=u, f=np.zeros(cloud.n),
                       b=u[cloud.boundary_indices])


@pytest.mark.parametrize("scale, shift, nudge, projected", [
    (1.0, 0.0, 0.0, True),
    (2.0, 0.0, 0.0, True),          # any sphere about the origin
    (1.0, 0.5, 0.0, False),         # a sphere about another centre
    (1.0, 0.0, 1e-9, False),        # one sample off the sphere
])
def test_projection_follows_the_samples_geometry(cap_cloud, scale, shift, nudge, projected):
    pts = cap_cloud.points * scale + [0.0, 0.0, shift]
    pts[7] *= 1.0 + nudge
    cloud = PointCloud(points=pts, intrinsic_dim=2, boundary_indices=cap_cloud.boundary_indices,
                       volume_weights=cap_cloud.volume_weights,
                       area_weights=cap_cloud.area_weights)
    interp = linear_interp(cloud)
    X = pts[::23]
    grads, raw = interp.grad_many(X), raw_grads(interp, X)
    if projected:
        radial = X / np.linalg.norm(X, axis=1, keepdims=True)
        normal_part = np.abs(np.einsum("qd,qd->q", grads, radial))
        assert np.all(normal_part <= 1e-12 * np.linalg.norm(grads, axis=1))
        assert not np.array_equal(grads, raw)
    else:
        assert np.array_equal(grads, raw)


def test_curve_on_a_sphere_not_projected(interval_cloud):
    # samples on the unit sphere, but on a circle of latitude: intrinsic
    # dimension 1 in R^3, so the sphere's tangent plane is not the curve's
    theta = 2.0 * interval_cloud.points[:, 0]
    pts = np.column_stack([0.8 * np.cos(theta), 0.8 * np.sin(theta), np.full(theta.size, 0.6)])
    cloud = PointCloud(points=pts, intrinsic_dim=1,
                       boundary_indices=interval_cloud.boundary_indices,
                       volume_weights=interval_cloud.volume_weights,
                       area_weights=interval_cloud.area_weights)
    interp = linear_interp(cloud)
    X = pts[::9]
    assert np.array_equal(interp.grad_many(X), raw_grads(interp, X))


# ---------------------------------------------------------------------------
# support, weights, validation
# ---------------------------------------------------------------------------

def test_out_of_support_raises(solved_interval):
    far = np.array([5.0])
    with pytest.raises(OutOfSupport) as exc:
        solved_interval.eval(far)
    assert exc.value.point == pytest.approx([5.0])
    with pytest.raises(OutOfSupport):
        solved_interval.eval_many(np.array([[0.5], [5.0]]))


def test_weight_positive_and_explicit(solved_interval):
    # the denominator w(x) = sum_j R_t(x, p_j) V_j covers the whole interval
    cl, params = solved_interval.cloud, solved_interval.params
    xs = np.linspace(0.0, 1.0, 17)[:, None]
    w = eval_Rt(xs[:, None, :], cl.points[None, :, :], params) @ cl.volume_weights
    assert np.all(w > 0.0)
    x0 = xs[5]
    expected = sum(eval_Rt(x0, cl.points[j], params) * cl.volume_weights[j]
                   for j in range(cl.n))
    assert w[5] == pytest.approx(expected, rel=1e-12)


def test_query_dimension_checked(solved_disk):
    with pytest.raises(ValueError, match="dimension"):
        solved_disk.eval_many(np.zeros((3, 3)))


@pytest.mark.parametrize("width", [1, 3])
def test_query_dimension_message(solved_disk, width):
    with pytest.raises(ValueError, match=f"query dimension {width} != ambient 2"):
        solved_disk.eval_many(np.zeros((3, width)))
    with pytest.raises(ValueError, match=f"query dimension {width} != ambient 2"):
        solved_disk.grad_many(np.zeros((3, width)))


def test_constructor_validation(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    n = interval_cloud.n
    m = len(interval_cloud.boundary_indices)
    good = dict(cloud=interval_cloud, params=params, profile=cubic_profile,
                u=np.zeros(n), f=np.zeros(n), b=np.zeros(m))
    with pytest.raises(ValueError):
        Interpolant(beta=0.0, **good)
    with pytest.raises(ValueError, match="u length"):
        Interpolant(beta=0.1, **{**good, "u": np.zeros(n - 1)})
    with pytest.raises(ValueError, match="f length"):
        Interpolant(beta=0.1, **{**good, "f": np.zeros(n + 1)})
    with pytest.raises(ValueError, match="b length"):
        Interpolant(beta=0.1, **{**good, "b": np.zeros(m + 1)})
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {beta}"):
            Interpolant(beta=beta, **good)


# ---------------------------------------------------------------------------
# neighbour-only sums against a dense oracle
# ---------------------------------------------------------------------------

def dense_oracle(interp, X):
    """I(x) and its raw gradient, summed over every sample and boundary point."""
    cl, params, t, beta = interp.cloud, interp.params, interp.params.t, interp.beta
    P, S = cl.points[None, :, :], cl.boundary_points[None, :, :]
    Xp = X[:, None, :]
    V, uV, fV = cl.volume_weights, interp.u * cl.volume_weights, \
        interp.f * cl.volume_weights
    gA = (interp.u[cl.boundary_indices] - interp.b) * cl.area_weights
    rt, rbar = eval_Rt(Xp, P, params), eval_Rbar_t(Xp, P, params)
    rbar_s = eval_Rbar_t(Xp, S, params)
    w = rt @ V
    num = rt @ uV - (2.0 * t / beta) * (rbar_s @ gA) + t * (rbar @ fV)
    drt, drbar = grad_Rt_x(Xp, P, params), grad_Rbar_t_x(Xp, P, params)
    drbar_s = grad_Rbar_t_x(Xp, S, params)
    gw = np.einsum("qnd,n->qd", drt, V)
    gnum = (np.einsum("qnd,n->qd", drt, uV)
            - (2.0 * t / beta) * np.einsum("qmd,m->qd", drbar_s, gA)
            + t * np.einsum("qnd,n->qd", drbar, fV))
    grad = (gnum * w[:, None] - num[:, None] * gw) / (w * w)[:, None]
    return num / w, grad


def support_edge_queries(cloud, radius, rng, count):
    """Rim samples, every seventh sample, and ambient points 0.9 support radii
    from random samples, rim samples among them, so each query has a sample
    well inside its support and many pairs near the support edge."""
    rim = cloud.boundary_points
    base = np.vstack([rim, cloud.points[rng.integers(0, cloud.n, size=count)]])
    d = rng.standard_normal(base.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return np.vstack([rim, cloud.points[::7], base + 0.9 * radius * d])


@pytest.mark.parametrize("which", ["solved_interval", "solved_disk",
                                   "solved_rectangle", "solved_cap"])
def test_neighbour_sums_match_dense_oracle(which, request, rng):
    interp = request.getfixturevalue(which)
    X = support_edge_queries(interp.cloud, interp.params.support_radius, rng, 300)
    assert X.shape[0] > CHUNK       # spans more than one evaluation block
    vals = interp.eval_many(X)
    grads = raw_grads(interp, X)
    want_v, want_g = dense_oracle(interp, X)
    assert np.max(np.abs(vals - want_v)) <= 1e-12 * np.max(np.abs(want_v))
    assert np.max(np.abs(grads - want_g)) <= 1e-12 * np.max(np.abs(want_g))
    # a repeat evaluation reproduces the first bit for bit
    assert np.array_equal(interp.eval_many(X), vals)
    assert np.array_equal(raw_grads(interp, X), grads)


def near_samples(cloud, radius, rng, count):
    """``count`` points 0.2 support radii off random samples: a pass over them
    and the samples takes the samples' own graph, at most 1.2 radii wide."""
    d = rng.standard_normal((count, cloud.ambient_dim))
    d *= 0.2 * radius / np.linalg.norm(d, axis=1, keepdims=True)
    return cloud.points[rng.integers(0, cloud.n, size=count)] + d


@pytest.mark.parametrize("which", ["solved_disk", "solved_cap"])
def test_run_matches_the_per_query_oracle_bit_for_bit(which, request, rng):
    # the tree path (fewer queries than samples) and the graph path (the
    # samples and as many points near them), against sums taken one query at
    # a time in ascending sample order
    interp = request.getfixturevalue(which)
    cl, radius = interp.cloud, interp.params.support_radius
    tree_X = support_edge_queries(cl, radius, rng, 100)
    graph_X = np.vstack([cl.points, near_samples(cl, radius, rng, cl.n)])
    assert tree_X.shape[0] < cl.n and interp._samples.candidates(graph_X) is not None
    for X in (tree_X, graph_X):
        vals, grads = interp._run(interp._queries(X))
        want_v, want_g = reconstruction_by_query(interp, X)
        assert np.array_equal(vals, want_v)
        assert np.array_equal(grads, want_g)


@pytest.mark.parametrize("which", ["solved_disk", "solved_cap"])
def test_block_sums_with_empty_runs_match_the_per_query_oracle(which, request, rng):
    # queries with no sample in support first, in the middle and last in a
    # block: their sums are 0 and their neighbours' sums are their own, on
    # the tree path and through the samples' graph
    interp = request.getfixturevalue(which)
    cl, radius = interp.cloud, interp.params.support_radius
    X = near_samples(cl, radius, rng, CHUNK)
    X[[0, CHUNK // 2, CHUNK - 1]] = 10.0
    want = reconstruction_sums(interp, X)
    assert np.array_equal(want[0] == 0.0, np.isin(np.arange(CHUNK), [0, CHUNK // 2, CHUNK - 1]))
    for via in (None, interp._samples.candidates(X)):
        got = interp._chunk(X, via)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def permuted_boundary(cloud, perm):
    """The same cloud with its boundary list (and area weights) permuted."""
    return PointCloud(points=cloud.points, intrinsic_dim=cloud.intrinsic_dim,
                      boundary_indices=cloud.boundary_indices[perm],
                      volume_weights=cloud.volume_weights,
                      area_weights=cloud.area_weights[perm],
                      metadata=dict(cloud.metadata))


@pytest.mark.parametrize("case_name, cloud_name", [
    ("disk_paraboloid", "disk_cloud"), ("cap_linear", "cap_cloud")])
def test_boundary_sums_follow_a_permuted_boundary_list(case_name, cloud_name,
                                                       request, rng):
    # the boundary sums map each sample to its position in boundary_indices;
    # with the list out of index order, a wrong position would pair a rim
    # sample with another sample's u - b and area weight
    cloud = request.getfixturevalue(cloud_name)
    cloud = permuted_boundary(cloud, rng.permutation(cloud.boundary_indices.size))
    assert np.any(np.diff(cloud.boundary_indices) < 0)
    interp, _ = solve_case_on_cloud(get_case(case_name), cloud, t=0.03, beta=0.15)
    X = support_edge_queries(cloud, interp.params.support_radius, rng, 300)
    vals = interp.eval_many(X)
    grads = raw_grads(interp, X)
    want_v, want_g = dense_oracle(interp, X)
    assert np.max(np.abs(vals - want_v)) <= 1e-12 * np.max(np.abs(want_v))
    assert np.max(np.abs(grads - want_g)) <= 1e-12 * np.max(np.abs(want_g))
    rim = cloud.boundary_indices
    gap = np.abs(interp.eval_many(cloud.points[rim]) - interp.u[rim])
    assert np.all(gap <= 1e-9 * (1.0 + np.abs(interp.u[rim])))


@pytest.mark.parametrize("which", ["solved_rectangle", "solved_cap"])
def test_boundary_weights_follow_their_samples(which, request, rng):
    # the boundary term is scattered onto the samples, so permuting the
    # boundary list together with b leaves every sum bit for bit unchanged
    interp = request.getfixturevalue(which)
    cloud = interp.cloud
    perm = rng.permutation(cloud.boundary_indices.size)
    other = Interpolant(cloud=permuted_boundary(cloud, perm), params=interp.params,
                        profile=interp.profile, beta=interp.beta,
                        u=interp.u, f=interp.f, b=interp.b[perm])
    X = support_edge_queries(cloud, interp.params.support_radius, rng, 300)
    for got, want in zip(other._run(other._queries(X)),
                         interp._run(interp._queries(X))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("which", ["solved_disk", "solved_cap"])
def test_value_and_grad_many_is_one_fused_pass(which, request, rng):
    interp = request.getfixturevalue(which)
    X = support_edge_queries(interp.cloud, interp.params.support_radius, rng, 300)
    vals, grads = interp.value_and_grad_many(X)
    assert np.array_equal(vals, interp.eval_many(X))
    assert np.array_equal(grads, interp.grad_many(X))


def test_h1_and_lemma_norms_unchanged_by_fused_pass(solved_cap, cap_cloud):
    # the norms, recomputed here from separate value and gradient passes,
    # must match the fused pass bit for bit
    case = get_case("cap_linear")
    q, w = cap_cloud.points, cap_cloud.volume_weights
    vals, grads = solved_cap.eval_many(q), solved_cap.grad_many(q)
    diff, gdiff = case.u(q) - vals, case.grad_u(q) - grads
    h1 = math.sqrt(float(np.sum(diff * diff * w))
                   + float(np.sum(np.einsum("qd,qd->q", gdiff, gdiff) * w)))
    assert h1_error(solved_cap, case, cap_cloud) == h1
    norm = math.sqrt(float(np.sum(vals * vals * w))
                     + float(np.sum(np.einsum("qd,qd->q", grads, grads) * w)))
    assert lemma_norm_check(solved_cap, cap_cloud)["h1_norm"] == norm


# ---------------------------------------------------------------------------
# passes of at least as many queries as samples take the samples' own graph
# ---------------------------------------------------------------------------

def count_searches(monkeypatch):
    """Record the radius of every ``self_join`` and count the k-d trees
    ``pim.neighbors`` builds."""
    joins, trees = [], []
    real_join, real_tree = NeighborIndex.self_join, neighbors.cKDTree
    monkeypatch.setattr(NeighborIndex, "self_join",
                        lambda self, r=None: joins.append(r) or real_join(self, r))
    monkeypatch.setattr(neighbors, "cKDTree",
                        lambda *a, **k: trees.append(a) or real_tree(*a, **k))
    return joins, trees


@pytest.mark.parametrize("which", ["solved_interval", "solved_disk", "solved_cap"])
def test_large_pass_makes_one_self_join_and_no_query_tree(which, request, monkeypatch, rng):
    # the samples, and points 0.2 support radii off random samples: a graph
    # at most 1.2 radii wide
    interp = request.getfixturevalue(which)
    cl, radius = interp.cloud, interp.params.support_radius
    d = rng.standard_normal((cl.n, cl.ambient_dim))
    d *= 0.2 * radius / np.linalg.norm(d, axis=1, keepdims=True)
    X = np.vstack([cl.points, cl.points[rng.integers(0, cl.n, size=cl.n)] + d])
    small = [interp.value_and_grad_many(X[lo:lo + 97]) for lo in range(0, X.shape[0], 97)]
    joins, trees = count_searches(monkeypatch)
    vals, grads = interp.value_and_grad_many(X)
    assert len(joins) == 1 and radius < joins[0] <= 1.2 * radius * (1.0 + 1e-12) and not trees
    # the same bits as the blocks of a tree over the queries
    assert np.array_equal(vals, np.concatenate([v for v, _ in small]))
    assert np.array_equal(grads, np.concatenate([g for _, g in small]))
    interp.value_and_grad_many(X[:cl.n - 1])
    assert len(joins) == 1 and len(trees) == -(-(cl.n - 1) // CHUNK)


@pytest.mark.parametrize("which", ["solved_disk", "solved_cap"])
def test_large_pass_far_off_the_samples_keeps_a_tree_per_block(which, request,
                                                               monkeypatch, rng):
    # queries 0.9 support radii off the samples would need a graph 1.9 radii
    # wide, which costs more than a tree over each block
    interp = request.getfixturevalue(which)
    cl = interp.cloud
    X = support_edge_queries(cl, interp.params.support_radius, rng, cl.n)
    small = [interp.value_and_grad_many(X[lo:lo + 97]) for lo in range(0, X.shape[0], 97)]
    joins, trees = count_searches(monkeypatch)
    vals, grads = interp.value_and_grad_many(X)
    assert not joins and len(trees) == -(-X.shape[0] // CHUNK)
    assert np.array_equal(vals, np.concatenate([v for v, _ in small]))
    assert np.array_equal(grads, np.concatenate([g for _, g in small]))


def test_large_pass_raises_out_of_support_without_widening_the_graph(solved_interval,
                                                                     monkeypatch):
    # queries on every sample, one just past the padded support radius from
    # the last sample and one far away: the graph keeps the support radius
    cl, radius = solved_interval.cloud, solved_interval.params.support_radius
    joins, _ = count_searches(monkeypatch)
    for far in (cl.points.max() + radius * (1.0 + 1e-8), 5.0):
        X = np.vstack([cl.points, [[far]], cl.points[::-1]])
        with pytest.raises(OutOfSupport) as exc:
            solved_interval.value_and_grad_many(X)
        assert exc.value.point == pytest.approx([far], rel=0.0)
    assert joins == [radius, radius]


@pytest.mark.parametrize("q, at", [(60, 0), (60, 30), (60, 59),
                                   (2 * CHUNK, CHUNK), (2 * CHUNK, CHUNK + 37),
                                   (2 * CHUNK, CHUNK - 1), (2 * CHUNK, 2 * CHUNK - 1)])
def test_query_without_pairs_raises_wherever_it_sits_in_its_block(solved_interval,
                                                                 monkeypatch, q, at):
    # A query with no sample in support has no pairs to sum, first, inside or
    # last in its block, on the tree path (q < n) and the graph path (q >= n).
    # Its sums stay 0: not the next query's terms, and no index past the pairs.
    cl, radius = solved_interval.cloud, solved_interval.params.support_radius
    joins, trees = count_searches(monkeypatch)
    for far in (cl.points.max() + radius * (1.0 + 1e-8), 5.0):
        X = np.linspace(0.0, 1.0, q)[:, None]
        X[at] = far
        for run in (solved_interval.eval_many, solved_interval.value_and_grad_many):
            with pytest.raises(OutOfSupport) as exc:
                run(X)
            assert exc.value.point == pytest.approx([far], rel=0.0)
    if q < cl.n:
        assert not joins and trees
    else:
        assert len(joins) == 4 and not trees      # one graph per pass


def test_non_finite_query_raises_on_both_paths(solved_interval):
    n = solved_interval.cloud.n
    for q in (3, n + 3):
        X = np.linspace(0.1, 0.9, q)[:, None]
        X[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solved_interval.value_and_grad_many(X)
