import numpy as np
import pytest

from oracles import query_brute
from pim import neighbors
from pim.neighbors import NeighborIndex, _squared_lengths
from pim.pointcloud import ManifoldSpec, generate


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_einsum(diff):
    """Squared row lengths by the row-wise einsum of a C-contiguous copy of
    ``diff``: einsum's order of summation follows the memory layout."""
    diff = np.ascontiguousarray(diff)
    return np.einsum("ij,ij->i", diff, diff)


def join_one(idx, x):
    """Indices of the points within the radius of ``x``, through ``join``."""
    counts, cols, diff, sq = idx.join(np.asarray(x, dtype=float).reshape(1, -1))
    assert not np.repeat(np.arange(1), counts).any()
    assert counts.dtype == np.intp and np.array_equal(counts, [cols.size])
    assert same_bits(sq, row_einsum(diff))
    return cols


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_squared_lengths_equal_einsum_bit_for_bit(d, rng):
    # assembly and join pass one coordinate array each, a strided view such as
    # diff.T must do as well; all get the bits of the row-wise einsum of a
    # contiguous difference array, and no input changes
    diff = rng.standard_normal((20000, d)) * 10.0 ** rng.integers(-6, 6, size=(20000, 1))
    kept = diff.copy()
    parts = [x.copy() for x in diff.T]
    expected = np.einsum("ij,ij->i", diff, diff)
    assert same_bits(_squared_lengths(parts), expected)
    assert same_bits(_squared_lengths(diff.T), expected)
    assert same_bits(np.stack(parts, axis=1), kept) and same_bits(diff, kept)


def test_uniform_interval_window():
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    idx = NeighborIndex(pts, radius=0.15)
    got = join_one(idx, np.array([0.5]))
    assert np.array_equal(got, [4, 5, 6])  # 0.4, 0.5, 0.6


def test_radius_covers_everything():
    pts = np.linspace(0.0, 1.0, 8)[:, None]
    idx = NeighborIndex(pts, radius=2.0)
    got = join_one(idx, np.array([0.37]))
    assert np.array_equal(got, np.arange(8))


def test_all_points_identical():
    pts = np.zeros((5, 2))
    idx = NeighborIndex(pts, radius=0.1)
    assert np.array_equal(join_one(idx, np.zeros(2)), np.arange(5))
    assert np.array_equal(join_one(idx, np.array([5.0, 5.0])),
                          np.array([], dtype=int))


def test_results_sorted_ascending(rng):
    pts = rng.uniform(-1, 1, size=(300, 2))
    idx = NeighborIndex(pts, radius=0.3)
    for _ in range(20):
        q = rng.uniform(-1.2, 1.2, size=2)
        got = join_one(idx, q)
        assert np.all(np.diff(got) > 0)


@pytest.mark.parametrize("n,dim", [(200, 1), (500, 2), (800, 2), (400, 3)])
def test_matches_brute_force_random(n, dim, rng):
    pts = rng.uniform(-1, 1, size=(n, dim))
    radius = 0.25
    idx = NeighborIndex(pts, radius)
    for _ in range(100):
        q = rng.uniform(-1.3, 1.3, size=dim)
        assert np.array_equal(join_one(idx, q), query_brute(idx, q))


def test_matches_brute_force_on_generated_clouds(disk_cloud, cap_cloud, rng):
    for cloud in (disk_cloud, cap_cloud):
        idx = NeighborIndex(cloud.points, radius=0.35)
        queries = rng.integers(0, cloud.n, size=60)
        for qi in queries:
            q = cloud.points[qi]
            assert np.array_equal(join_one(idx, q), query_brute(idx, q))


def test_query_self_consistent(rng):
    cloud = generate(ManifoldSpec.disk(400), seed=2, jitter=0.2)
    idx = NeighborIndex(cloud.points, radius=0.3)
    rows = idx.query_self()
    assert len(rows) == cloud.n
    for i in (0, 17, 133, cloud.n - 1):
        assert np.array_equal(rows[i], join_one(idx, cloud.points[i]))
        assert i in rows[i]  # every point is its own neighbor


def test_boundary_of_ball_included():
    # points exactly at distance == radius must be reported
    pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]])
    idx = NeighborIndex(pts, radius=0.25)
    got = join_one(idx, np.array([0.0, 0.0]))
    assert np.array_equal(got, [0, 1])


def test_no_false_positives(rng):
    pts = rng.uniform(0, 1, size=(500, 2))
    radius = 0.2
    idx = NeighborIndex(pts, radius)
    for _ in range(50):
        q = rng.uniform(0, 1, size=2)
        got = join_one(idx, q)
        if got.size:
            dist = np.linalg.norm(pts[got] - q, axis=1)
            assert np.max(dist) <= radius * (1 + 1e-12)


def test_invalid_radius():
    pts = np.zeros((3, 1))
    with pytest.raises(ValueError):
        NeighborIndex(pts, radius=0.0)
    with pytest.raises(ValueError):
        NeighborIndex(pts, radius=-1.0)


def test_points_must_be_two_dimensional():
    with pytest.raises(ValueError, match="^points must be a 2-d array$"):
        NeighborIndex(np.zeros(3), radius=1.0)


def test_points_at_radius_and_one_ulp_either_side(rng):
    # the tree searches a padded radius; the exact cut must match query_brute
    # for points at distance radius and one ulp inside and outside it
    radius = 0.25
    shells = (np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf))
    axis = [np.array([sign * r, 0.0]) for sign in (1.0, -1.0) for r in shells]
    idx = NeighborIndex(np.array(axis), radius)
    # on an axis the squared distances are exact: the outer points drop out
    assert np.array_equal(join_one(idx, np.zeros(2)), [0, 1, 3, 4])

    dirs = rng.standard_normal((40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centre = np.array([0.1, -0.2])
    pts = np.array([centre + r * u for u in dirs for r in shells])
    idx = NeighborIndex(pts, radius)
    want = query_brute(idx, centre)
    assert 0 < want.size < pts.shape[0]
    assert np.array_equal(join_one(idx, centre), want)
    counts, cols, _, _ = idx.join(np.vstack([centre, centre]))
    assert np.array_equal(np.repeat(np.arange(2), counts), np.repeat([0, 1], want.size))
    assert np.array_equal(cols, np.concatenate([want, want]))
    for i, row in enumerate(idx.query_self()):
        assert np.array_equal(row, query_brute(idx, pts[i]))


def test_pairs_rows_and_columns_ascending(rng):
    pts = rng.uniform(-1, 1, size=(400, 3))
    idx = NeighborIndex(pts, radius=0.4)
    queries = rng.uniform(-1.2, 1.2, size=(50, 3))
    counts, cols, _, _ = idx.join(queries)
    rows = np.repeat(np.arange(queries.shape[0]), counts)
    assert np.all(np.diff(rows) >= 0)
    for q in range(queries.shape[0]):
        assert np.array_equal(cols[rows == q], query_brute(idx, queries[q]))


def test_empty_point_set():
    idx = NeighborIndex(np.empty((0, 2)), radius=0.5)
    counts, cols, diff, sq = idx.join(np.zeros((3, 2)))
    assert np.repeat(np.arange(3), counts).size == 0 and np.array_equal(counts, [0, 0, 0])
    assert cols.size == 0 and diff.shape == (0, 2) and sq.size == 0
    assert join_one(idx, np.zeros(2)).size == 0
    assert idx.query_self() == []
    cand_ptr, cols = idx.self_join()
    assert np.array_equal(cand_ptr, [0]) and cols.size == 0


def test_self_join_candidate_graph(rng):
    pts = rng.uniform(-1, 1, size=(600, 3))
    n, radius = pts.shape[0], 0.3
    idx = NeighborIndex(pts, radius)
    cand_ptr, cols = idx.self_join()
    assert cols.dtype == np.int32 and cand_ptr.shape == (n + 1,)
    assert cand_ptr[0] == 0 and cand_ptr[-1] == cols.shape[0]
    rows = np.repeat(np.arange(n), np.diff(cand_ptr))
    keys = rows * n + cols
    assert np.all(np.diff(keys) > 0)  # rows and columns ascend, no duplicates
    mirrored = np.sort(cols.astype(np.int64) * n + rows)
    assert np.array_equal(mirrored, keys)  # both orders of every pair
    assert np.all(np.isin(np.arange(n) * (n + 1), keys))  # every self pair
    # a superset of the exact pairs, and nothing far past the radius
    for i in (0, 1, 299, n - 1):
        assert np.all(np.isin(query_brute(idx, pts[i]), cols[rows == i]))
    dist = np.linalg.norm(pts[rows] - pts[cols], axis=1)
    assert np.max(dist) <= radius * (1.0 + 1e-8)


@pytest.mark.parametrize("n", [46340, 46341])
def test_self_join_either_side_of_the_int32_key_limit(n, rng):
    # n * n fits int32 up to n = 46 340: the int32 key path there, the int64
    # one past it, with the same graph and dtypes from both
    pts = np.linspace(0.0, 1.0, n)[:, None]
    idx = NeighborIndex(pts, radius=1.5 / (n - 1))
    cand_ptr, cols = idx.self_join()
    assert cand_ptr.dtype == np.int64 and cols.dtype == np.int32
    counts = np.full(n, 3)
    counts[[0, -1]] = 2
    assert np.array_equal(cand_ptr, np.concatenate(([0], np.cumsum(counts))))
    rows = np.repeat(np.arange(n), counts)
    assert np.all((np.diff(cols) > 0) | (np.diff(rows) > 0))  # ascending in each row
    assert np.array_equal(rows[rows == cols], np.arange(n))  # every self pair
    for i in np.concatenate(([0, n - 1], rng.choice(n, size=40, replace=False))):
        assert np.array_equal(cols[cand_ptr[i]:cand_ptr[i + 1]], query_brute(idx, pts[i]))


@pytest.mark.parametrize("n", [46340, 46341])
def test_self_join_without_pairs_either_side_of_the_int32_key_limit(n):
    # a radius below the spacing: the tree finds no pair, and the graph holds
    # the self pairs alone, from int32 keys and from int64 ones
    pts = np.linspace(0.0, 1.0, n)[:, None]
    cand_ptr, cols = NeighborIndex(pts, radius=0.5 / (n - 1)).self_join()
    assert cand_ptr.dtype == np.int64 and cols.dtype == np.int32
    assert np.array_equal(cand_ptr, np.arange(n + 1))
    assert np.array_equal(cols, np.arange(n))


def test_query_self_matches_brute_on_a_large_cloud_with_shells(rng):
    # a jittered cloud plus, around a few of its points, points at exactly
    # the radius and one ulp either side of it
    radius = 0.2
    cloud = generate(ManifoldSpec.disk(900), seed=4, jitter=0.25)
    shells = (np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf))
    extra = []
    for centre in cloud.points[rng.choice(cloud.n, size=6, replace=False)]:
        dirs = rng.standard_normal((10, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        extra += [centre + r * u for u in dirs for r in shells]
        extra += [centre + np.array([sign * r, 0.0])
                  for sign in (1.0, -1.0) for r in shells]
    pts = np.vstack([cloud.points, extra])
    idx = NeighborIndex(pts, radius)
    rows = idx.query_self()
    assert len(rows) == pts.shape[0]
    for i, row in enumerate(rows):
        assert np.array_equal(row, query_brute(idx, pts[i])), i


def assert_join_matches_brute(idx, queries):
    counts, cols, diff, sq = idx.join(queries)
    assert counts.shape == (queries.shape[0],) and counts.dtype == np.intp
    rows = np.repeat(np.arange(queries.shape[0]), counts)
    assert rows.shape == cols.shape == sq.shape == (diff.shape[0],)
    assert diff.shape[1] == idx.points.shape[1]
    assert np.all(np.diff(rows) >= 0)
    for q in range(queries.shape[0]):
        assert np.array_equal(cols[rows == q], query_brute(idx, queries[q])), q
    # the differences are the ones the exact cut measured
    assert np.array_equal(diff, idx.points[cols] - queries[rows])
    # and the squared distances are the ones it tested, bit for bit
    assert same_bits(sq, row_einsum(diff))
    return rows, cols


def test_join_with_no_queries(rng):
    idx = NeighborIndex(rng.uniform(-1, 1, size=(50, 2)), radius=0.3)
    rows, cols = assert_join_matches_brute(idx, np.empty((0, 2)))
    assert rows.size == 0 and cols.size == 0


def test_join_duplicate_queries(rng):
    pts = rng.uniform(-1, 1, size=(300, 2))
    idx = NeighborIndex(pts, radius=0.3)
    queries = np.vstack([pts[:5], pts[:5], np.repeat([[0.1, 0.2]], 3, axis=0)])
    rows, cols = assert_join_matches_brute(idx, queries)
    for q in range(5):
        assert np.array_equal(cols[rows == q], cols[rows == q + 5])


def test_join_query_without_neighbour(rng):
    idx = NeighborIndex(rng.uniform(-1, 1, size=(200, 2)), radius=0.2)
    queries = np.array([[0.0, 0.0], [5.0, 5.0], [0.5, -0.5]])
    rows, _ = assert_join_matches_brute(idx, queries)
    assert 1 not in rows and 0 in rows and 2 in rows


def test_join_one_dimensional_points(rng):
    idx = NeighborIndex(rng.uniform(0, 1, size=(150, 1)), radius=0.05)
    assert_join_matches_brute(idx, rng.uniform(-0.1, 1.1, size=(80, 1)))


def test_join_more_queries_than_a_reconstruction_block(rng):
    # the reconstruction joins 128 queries at a time; a single join must
    # also handle more than that
    idx = NeighborIndex(rng.uniform(-1, 1, size=(500, 3)), radius=0.35)
    assert_join_matches_brute(idx, rng.uniform(-1.2, 1.2, size=(600, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_raises(bad):
    for pts in (np.zeros((4, 2)), np.empty((0, 2))):
        idx = NeighborIndex(pts, radius=0.5)
        queries = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            idx.join(queries)
        with pytest.raises(ValueError, match="finite"):
            idx.join(queries[1])


def test_non_finite_query_raises_on_the_graph_path():
    for bad in (np.nan, np.inf, -np.inf):
        for pts in (np.zeros((4, 2)), np.empty((0, 2))):
            idx = NeighborIndex(pts, radius=0.5)
            with pytest.raises(ValueError, match="finite"):
                idx.candidates(np.array([[0.0, 0.0], [bad, 0.0]]))


def record_self_joins(monkeypatch):
    """The radius of every later ``self_join`` call, as a list that grows."""
    radii = []
    real = NeighborIndex.self_join
    monkeypatch.setattr(NeighborIndex, "self_join",
                        lambda self, r=None: radii.append(r) or real(self, r))
    return radii


def graph_blocks(idx, queries, block):
    """``join`` through one ``candidates`` call, block by block as a
    reconstruction pass runs it, beside the dual-tree ``join`` of each block."""
    first, count, cols = idx.candidates(queries)
    for lo in range(0, queries.shape[0], block):
        part = queries[lo:lo + block]
        yield (idx.join(part, (first[lo:lo + block], count[lo:lo + block], cols)),
               idx.join(part))


@pytest.mark.parametrize("d,radius", [(1, 0.05), (2, 0.25), (3, 0.45)])
def test_graph_path_joins_like_the_dual_tree_bit_for_bit(d, radius, monkeypatch, rng):
    # queries on samples, between samples, duplicated, beyond every support
    # and at random, in shuffled order; blocks of 64 and the whole pass.  The
    # random queries need a graph wider than candidates builds by default.
    # Queries beyond every support also sit first, in the middle and last in
    # a block of 64 and in the pass: their counts are 0 on both paths.
    monkeypatch.setattr(neighbors, "_REACH_MAX", np.inf)
    pts = rng.uniform(-1, 1, size=(400, d))
    idx = NeighborIndex(pts, radius)
    between = 0.5 * (pts[:80] + pts[rng.integers(0, 400, size=80)])
    queries = np.vstack([pts[:100], between, pts[5:15], pts[5:15], np.full((3, d), 4.0),
                         rng.uniform(-1.2, 1.2, size=(300, d))])
    queries = queries[rng.permutation(queries.shape[0])]
    q = queries.shape[0]
    empty = [0, 31, 63, 64, q // 2, q - 1]
    queries[empty] = 4.0
    _, count, _ = idx.candidates(queries)
    for block in (64, q):
        lo = 0
        for got, want in graph_blocks(idx, queries, block):
            for a, b in zip(got, want):
                assert same_bits(a, b)
            counts, cols = got[0], got[1]
            assert counts.shape == (min(block, q - lo),) and counts.dtype == np.intp
            assert counts.sum() == cols.size
            assert got[2].shape == (cols.shape[0], d)
            at = [k - lo for k in empty if lo <= k < lo + block]
            assert not counts[at].any()
            lo += block
    assert count.sum() > idx.join(queries)[0].sum()     # the exact cut ran


def test_graph_candidates_skip_queries_beyond_every_support(monkeypatch):
    # a 21 x 21 grid of spacing 0.05; one query just past the padded radius
    # from the grid's edge and one far away get no candidates and leave the
    # graph's radius at radius + the largest distance of the other queries
    # to their nearest point
    radius = 0.12
    g = np.linspace(0.0, 1.0, 21)
    pts = np.column_stack([np.repeat(g, 21), np.tile(g, 21)])
    idx = NeighborIndex(pts, radius)
    radii = record_self_joins(monkeypatch)
    inside = np.array([[0.5, 0.5], [0.51, 0.52], [1.0 + 0.2 * radius, 0.3]])
    beyond = np.array([[1.0 + radius * (1.0 + 1e-8), 0.5], [50.0, 50.0]])
    queries = np.vstack([inside[:2], beyond[:1], inside[2:], beyond[1:]])
    first, count, cols = idx.candidates(queries)
    assert count[2] == count[4] == 0 and np.all(count[[0, 1, 3]] > 0)
    assert radii == [pytest.approx(1.2 * radius, rel=1e-12)]
    for got, want in graph_blocks(idx, queries, 5):
        assert not np.isin([2, 4], np.repeat(np.arange(5), got[0])).any()
        for a, b in zip(got, want):
            assert same_bits(a, b)
    # a query 0.3 radii off the grid would widen the graph past 1.25 radii:
    # no graph, and join keeps the tree over the queries
    radii.clear()
    assert idx.candidates(np.vstack([queries, [[1.0 + 0.3 * radius, 0.3]]])) is None
    assert not radii


def test_graph_candidates_of_an_empty_point_set(monkeypatch):
    # the tree gives every query index 0 at distance inf: no candidates
    idx = NeighborIndex(np.empty((0, 2)), radius=0.5)
    radii = record_self_joins(monkeypatch)
    first, count, cols = idx.candidates(np.zeros((3, 2)))
    assert radii == [0.5] and not count.any() and cols.size == 0
    counts, cols, diff, sq = idx.join(np.zeros((3, 2)), (first, count, cols))
    assert np.repeat(np.arange(3), counts).size == 0 and np.array_equal(counts, [0, 0, 0])
    assert cols.size == 0 and diff.shape == (0, 2) and sq.size == 0
