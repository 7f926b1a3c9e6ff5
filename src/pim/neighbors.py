"""Fixed-radius neighbor queries over a static point set.

The kernels have compact support, so every matrix row and every
reconstruction sum touches only points within a known radius.  A k-d tree
(``scipy.spatial.cKDTree``) over the points proposes candidates within a
slightly padded radius; the final cut is the same squared-distance test
``query_brute`` applies, so indexed and direct-scan results agree exactly
whatever rounding the tree uses internally.

Queries come in batches: ``join`` joins a tree over the queries to the
point tree in one C-level call, sorts the candidate pairs once as int64
keys ``q * n + j``, applies the exact cut, and returns the kept pairs with
the difference vectors and squared distances the cut computed, so callers
never measure a pair twice.  ``query_brute``, a direct scan of one query,
is the oracle for every batch query.

Assembly takes every pair of the cloud at once from ``self_join``: one tree
self-join, mirrored into keys ``i * n + j``, sorted once and turned into a
candidate graph in compressed-sparse-row form, ``(cand_ptr, cols)``: row
starts from a search for ``i * n``, columns as the keys modulo ``n``.  Up to
n = 46 340 points, where ``n * n`` fits int32, the keys are int32 (half the
bytes to sort), the self keys ``i * (n + 1)`` are sorted in with them, and
the keys are reduced in place, so the key array becomes the column array.
Past that the keys are int64, formed in the tree's own pair buffer and
reduced into a new array, and the self pairs are inserted after the sort.
Assembly applies its own exact cut (the open kernel support) to the
candidates and sums in index order, so it is bit-identical to a masked full
scan.  ``query_self`` applies the radius cut to the same graph.

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

    def join(self, queries: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every (query, point) pair within ``radius``, with its difference.

        Returns ``(rows, cols, diff, sq)``: ``rows`` indexes ``queries`` and
        ascends, ``cols`` indexes the points and ascends within each row,
        ``diff[p] = points[cols[p]] - queries[rows[p]]`` and ``sq[p]`` is its
        squared length, the value the radius cut tested.  Raises
        ``ValueError`` if a query is not finite.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        n = self.points.shape[0]
        hits = cKDTree(queries).sparse_distance_matrix(
            self._tree, self.radius * (1.0 + _PAD), output_type="ndarray")
        keys = hits["i"] * n + hits["j"]
        keys.sort()
        rows, cols = np.divmod(keys, n)
        diff = np.take(self.points, cols, axis=0) - np.take(queries, rows, axis=0)
        sq = _squared_lengths(diff.T)
        keep = sq <= self._r2
        if keep.all():      # the padded radius rarely adds a pair; skip the copies
            return rows, cols, diff, sq
        return rows[keep], cols[keep], diff[keep], sq[keep]

    def self_join(self) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs among the points, as a compressed-sparse-row graph.

        Returns ``(cand_ptr, cols)``: the candidates of point ``i`` are
        ``cols[cand_ptr[i]:cand_ptr[i + 1]]``, ascending.  They hold both
        orders of every pair within ``radius`` and each point itself; the
        tree's padded radius may add pairs just beyond ``radius``, so callers
        apply their own exact cut.  ``cols`` is int32 when the candidate
        count fits, int64 otherwise, and ``cand_ptr`` is int64.  Up to
        n = 46 340 the keys are int32 and the self keys are sorted in with
        the pairs, so nothing is inserted afterwards.
        """
        n = self.points.shape[0]
        keys = self._tree.query_pairs(self.radius * (1.0 + _PAD), output_type="ndarray")
        if n * n <= np.iinfo(np.int32).max:     # n <= 46 340: every key fits int32
            # Narrow the pairs and free the tree's buffer before allocating the
            # array that is returned: allocated while that buffer lived, it
            # left the heap about 37 MB larger between solve-cap ops.
            p = keys.shape[0]
            ij = np.empty(2 * p, dtype=np.int32)
            i, j = ij[:p], ij[p:]
            i[...] = keys[:, 0]
            j[...] = keys[:, 1]
            del keys
            # keys i*n + j, j*n + i and the self keys i*(n + 1), sorted once
            cols = np.empty(2 * p + n, dtype=np.int32)
            np.multiply(i, n, out=cols[:p])
            cols[:p] += j
            np.multiply(j, n, out=cols[p:2 * p])
            cols[p:2 * p] += i
            np.multiply(np.arange(n, dtype=np.int32), n + 1, out=cols[2 * p:])
            del ij, i, j
            cols.sort()
            # int32 needles: int64 ones would make searchsorted cast all of cols
            cand_ptr = np.searchsorted(cols, np.arange(n + 1, dtype=np.int32) * np.int32(n))
            return cand_ptr, np.remainder(cols, n, out=cols)
        # keys i*n + j and j*n + i of each intp pair i < j, written over the
        # pair array itself so that no second list of that size exists
        ij = keys[:, 0] * n + keys[:, 1]
        keys[:, 1] *= n
        keys[:, 1] += keys[:, 0]
        keys[:, 0] = ij
        del ij
        keys = keys.reshape(-1)
        keys.sort()
        starts = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        at_self = np.searchsorted(keys, np.arange(n, dtype=np.int64) * (n + 1))
        dtype = np.int32 if keys.shape[0] + n <= np.iinfo(np.int32).max else np.int64
        cols = np.remainder(keys, n, out=np.empty(keys.shape, dtype), casting="unsafe")
        del keys
        return starts + np.arange(n + 1), np.insert(cols, at_self, np.arange(n, dtype=dtype))

    def query_self(self) -> list[np.ndarray]:
        """Neighbor list for every indexed point (each includes itself)."""
        n = self.points.shape[0]
        if n == 0:
            return []
        cand_ptr, cols = self.self_join()
        rows = np.repeat(np.arange(n), np.diff(cand_ptr))
        diff = np.take(self.points, cols, axis=0) - np.take(self.points, rows, axis=0)
        keep = _squared_lengths(diff.T) <= self._r2
        ends = np.cumsum(np.bincount(rows[keep], minlength=n))
        return np.split(cols[keep].astype(np.int64), ends[:-1])

    def query_brute(self, x: np.ndarray) -> np.ndarray:
        """Direct O(n) scan; oracle for :meth:`join` and :meth:`query_self`."""
        x = np.asarray(x, dtype=float).ravel()
        diff = self.points - x
        keep = _squared_lengths(diff.T) <= self._r2
        return np.flatnonzero(keep).astype(np.intp)
