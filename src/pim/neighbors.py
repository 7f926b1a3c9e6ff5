"""Fixed-radius neighbor queries over a static point set.

The kernels have compact support, so every matrix row and every
reconstruction sum touches only points within a known radius.  A k-d tree
(``scipy.spatial.cKDTree``) over the points proposes candidates within a
slightly padded radius; the final cut is an exact squared-distance test,
so indexed and direct-scan results agree exactly whatever rounding the
tree uses internally.

Queries come in batches: ``join`` joins a tree over a batch to the point
tree and sorts the pairs once as int64 keys ``q * n + j``, or takes each
query's candidates from its nearest point's row of one ``self_join`` (below)
made by ``candidates`` for a whole pass.  It returns each query's count of
the pairs the exact cut keeps, one index into the candidates, and the pairs
with the differences and squared distances it computed, so callers never
measure a pair twice; tests check both ways against a direct scan.

Assembly takes every pair of the cloud at once from ``self_join``: one tree
self-join, mirrored into keys ``i * n + j`` with the self keys
``i * (n + 1)`` among them, sorted once and turned into a candidate graph in
compressed-sparse-row form, ``(cand_ptr, cols)``: row starts from a search
for ``i * n``, columns as the keys less their row's ``i * n``, in place.
The keys are int32 (half the bytes to sort) while ``n * n`` fits, up to
n = 46 340 points, and int64 past that; one path serves every n.  Assembly
applies its own exact cut (the open kernel support) to the candidates and
sums in index order, so it is bit-identical to a masked full scan.
``query_self`` applies the radius cut to the same graph.

Every pair's squared distance, here and in assembly, comes from the one
routine ``_squared_lengths``, which adds the squares in a fixed order: the
reconstruction's I(p_i) = u_i needs assembly and reconstruction to measure
each pair to the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["NeighborIndex"]

# Relative padding of the tree's search radius.  The tree measures distance
# with its own rounding; a pad far above a few ulps keeps it from dropping a
# point the exact test below would keep.
_PAD = 1e-9
# widest graph ``candidates`` builds, in radii: at 1.5 a tree per batch was faster
_REACH_MAX = 1.25
# rows per block when ``self_join`` turns keys into columns
_JOIN_ROWS = 4096


def _squared_lengths(parts) -> np.ndarray:
    """Squared lengths of vectors given one coordinate array each, such as
    ``diff.T``; ``parts`` is not modified.  Up to three coordinates the sum is
    (x0^2 + x2^2) + x1^2, the order of ``np.einsum("ij,ij->i", diff, diff)``
    on a contiguous ``diff``; past three, that einsum sums them itself.
    """
    if len(parts) > 3:
        diff = np.stack(parts, axis=1)
        return np.einsum("ij,ij->i", diff, diff)
    sq = parts[0] * parts[0]
    for x in parts[:0:-1]:
        sq += x * x
    return sq


class NeighborIndex:
    """k-d tree over a point set for fixed-radius neighbor queries.

    Parameters
    ----------
    points : (n, d) array
        The point set to index.
    radius : float
        Query radius; pairs at distance exactly ``radius`` are included.
    """

    def __init__(self, points: np.ndarray, radius: float):
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.points = points
        self.radius = float(radius)
        self._r2 = self.radius * self.radius
        self._tree = cKDTree(points)

    def join(self, queries: np.ndarray, via=None) -> tuple[np.ndarray, ...]:
        """Every (query, point) pair within ``radius``, with its difference.

        Returns ``(counts, cols, diff, sq)``, the pairs in query order: query
        k has ``counts[k]`` (intp, maybe 0), ``cols`` indexes the points and
        ascends within each query, ``diff[p] = points[cols[p]] - queries[k]``
        for pair p of query k, and ``sq[p]`` is its squared length, the value
        the radius cut tested.  ``via``, a pass's :meth:`candidates` sliced to
        these queries, gives the same result.  Raises ``ValueError`` if a
        query is not finite.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if via is None:
            n = self.points.shape[0]
            hits = cKDTree(queries).sparse_distance_matrix(
                self._tree, self.radius * (1.0 + _PAD), output_type="ndarray")
            keys = hits["i"] * n + hits["j"]
            keys.sort()
            count = np.diff(np.searchsorted(keys, np.arange(queries.shape[0] + 1) * n))
            cols = keys % n
        else:
            first, count, graph = via
            at = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
            cols = np.take(graph, at).astype(np.intp)
        diff = np.empty((queries.shape[1], cols.shape[0]))     # diff.T is returned
        for p, x, out in zip(self.points.T, queries.T, diff):
            np.subtract(np.take(p, cols), np.repeat(x, count), out=out)
        sq = _squared_lengths(diff)
        idx = np.flatnonzero(sq <= self._r2)    # the exact cut; counts from the runs' ends
        counts = np.diff(np.searchsorted(idx, np.cumsum(count)), prepend=0)
        return counts, np.take(cols, idx), np.take(diff, idx, axis=1).T, np.take(sq, idx)

    def candidates(self, queries: np.ndarray) -> tuple[np.ndarray, ...] | None:
        """``(first, count, cols)``: query k's candidates ``cols[first[k]:first[k]
        + count[k]]`` are its nearest point's row of :meth:`self_join` at radius
        ``radius + max δ``, δ a query's distance to that point: a superset of
        ``join``'s pairs, ascending.  A query with no point within ``radius`` has
        none and no δ.  None if that radius passes ``_REACH_MAX * radius``.
        Raises ``ValueError`` if a query is not finite."""
        n = self.points.shape[0]
        dist, near = self._tree.query(np.atleast_2d(np.asarray(queries, dtype=float)))
        # no point within radius (dist is inf on an empty tree): row n, emptied by the clip
        near[~(dist <= self.radius * (1.0 + _PAD))] = n
        reach = self.radius + dist.max(initial=0.0, where=near < n)
        if reach > _REACH_MAX * self.radius:
            return None
        cand_ptr, cols = self.self_join(reach)
        first = cand_ptr[near]
        return first, np.take(cand_ptr, near + 1, mode="clip") - first, cols

    def self_join(self, radius: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs among the points, as a compressed-sparse-row graph.

        Returns ``(cand_ptr, cols)``: the candidates of point ``i`` are
        ``cols[cand_ptr[i]:cand_ptr[i + 1]]``, ascending.  They hold both
        orders of every pair within ``radius`` (by default the index's) and
        each point itself; the tree's padded radius may add pairs just beyond
        ``radius``, so callers apply their own exact cut.  ``cols`` is int32
        when the candidate count fits, int64 otherwise, and ``cand_ptr`` is
        int64.  The self keys are sorted in with the pairs' keys, which are
        int32 up to n = 46 340 and int64 past it.
        """
        n = self.points.shape[0]
        pairs = self._tree.query_pairs((radius or self.radius) * (1.0 + _PAD), output_type="ndarray")
        # Narrow the pairs (i < j < n fit int32) and free the tree's buffer
        # before allocating the array that is returned: allocated while that
        # buffer lived, it left the heap about 37 MB larger between solve-cap ops.
        p = pairs.shape[0]
        ij = pairs.T.astype(np.int32, order="C")
        del pairs
        # keys i*n + j, j*n + i and the self keys i*(n + 1), sorted once; int32
        # while n*n fits (n <= 46 340), half the bytes to sort, int64 past that
        kt = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        keys = np.empty(2 * p + n, dtype=kt)
        mirrored = keys[:2 * p].reshape(2, p)
        np.multiply(ij, n, out=mirrored, dtype=kt)
        mirrored += ij[::-1]
        np.multiply(np.arange(n, dtype=kt), n + 1, out=keys[2 * p:])
        del ij
        keys.sort()
        # needles of the keys' dtype: others would make searchsorted cast all of keys
        bases = np.arange(n + 1, dtype=kt) * kt(n)
        cand_ptr = np.searchsorted(keys, bases)
        # columns: each key less its row's base i * n, in place unless they need
        # another dtype (int32 unless the candidates pass 2**31 - 1); the keys
        # modulo n took four times as long, 5.2 against 1.3 ms at cap 8k.  The
        # repeated bases go by blocks of rows: whole, past 46 340 points they
        # would add 8 bytes a key to the join's peak
        ct = np.int32 if keys.shape[0] <= np.iinfo(np.int32).max else np.int64
        cols = keys if ct is kt else np.empty(keys.shape, ct)
        for lo in range(0, n, _JOIN_ROWS):
            hi = min(lo + _JOIN_ROWS, n)
            block = slice(cand_ptr[lo], cand_ptr[hi])
            np.subtract(keys[block], np.repeat(bases[lo:hi], np.diff(cand_ptr[lo:hi + 1])),
                        out=cols[block], casting="unsafe")
        return cand_ptr, cols

    def query_self(self) -> list[np.ndarray]:
        """Neighbor list for every indexed point (each includes itself)."""
        n = self.points.shape[0]
        if n == 0:
            return []
        counts, cols, _, _ = self.join(self.points, self.candidates(self.points))
        return np.split(cols.astype(np.int64), np.cumsum(counts)[:-1])
