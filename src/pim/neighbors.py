"""Fixed-radius neighbor queries over a static point set.

The kernels have compact support, so every matrix row and every
reconstruction sum touches only points within a known radius.  A k-d tree
(``scipy.spatial.cKDTree``) proposes candidates within a slightly padded
radius; the final cut is the same squared-distance test ``query_brute``
applies, so indexed and direct-scan results agree exactly whatever rounding
the tree uses internally.

Queries return indices sorted ascending.  Assembly sums contributions in
index order, so results are bit-identical whether rows are built from this
index or from a masked full distance matrix.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["NeighborIndex"]

CHUNK = 256  # query points per batched tree call in query_many

# Relative padding of the tree's search radius.  The tree measures distance
# with its own rounding; a pad far above a few ulps keeps it from dropping a
# point the exact test below would keep.
_PAD = 1e-9


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

    def pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (query, point) pair within ``radius``, as index arrays.

        Returns ``(rows, cols)``: ``rows`` indexes ``queries`` and ascends,
        ``cols`` indexes the points and ascends within each row.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        lists = self._tree.query_ball_point(queries, self.radius * (1.0 + _PAD),
                                            return_sorted=True)
        counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        rows = np.repeat(np.arange(len(lists), dtype=np.intp), counts)
        cols = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                           count=int(counts.sum()))
        diff = self.points[cols] - queries[rows]
        keep = np.einsum("ij,ij->i", diff, diff) <= self._r2
        return rows[keep], cols[keep]

    def query_point(self, x: np.ndarray) -> np.ndarray:
        """Indices (ascending) of points within ``radius`` of ``x``."""
        x = np.asarray(x, dtype=float).ravel()
        return self.pairs(x[None, :])[1]

    def query_many(self, queries: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the ascending neighbor indices of each query point in turn.

        Pairs are found ``CHUNK`` queries at a time, so memory stays bounded
        by one block's pairs however many queries there are.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        for lo in range(0, queries.shape[0], CHUNK):
            block = queries[lo:lo + CHUNK]
            rows, cols = self.pairs(block)
            ends = np.cumsum(np.bincount(rows, minlength=block.shape[0]))
            yield from np.split(cols, ends[:-1])

    def query_self(self) -> list[np.ndarray]:
        """Neighbor list for every indexed point (each includes itself)."""
        return list(self.query_many(self.points))

    def query_brute(self, x: np.ndarray) -> np.ndarray:
        """Direct O(n) scan; oracle for query_point."""
        x = np.asarray(x, dtype=float).ravel()
        diff = self.points - x
        keep = np.einsum("ij,ij->i", diff, diff) <= self._r2
        return np.flatnonzero(keep).astype(np.intp)
