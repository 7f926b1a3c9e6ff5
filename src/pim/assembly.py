"""Linear-system assembly for the penalized integral Laplacian.

Row i of the assembled matrix encodes

  L u(p_i) + (2/beta) sum_l Rbar_t(p_i, s_l) u_l A_l

with L the kernel Laplacian of :mod:`pim.operators`, and the right-hand
side carries the data terms

  (2/beta) sum_l Rbar_t(p_i, s_l) b_l A_l  +  sum_j Rbar_t(p_i, p_j) f_j V_j.

The f term is the tail-kernel smoothing of the source: integrating the
kernel Laplacian by parts gives L u = 2 int Rbar_t du/dn - int Rbar_t
Laplacian(u) up to O(sqrt(t)), so with -Laplacian(u) = f and the Robin
substitution du/dn = (b - u)/beta the system above is the consistent
discretization (checked against dense quadrature in the operator tests).

Signs follow the positive form of the operator (diagonal positive,
off-diagonal kernel entries negative), so constants are reproduced
exactly: matrix @ 1 equals the boundary-column vector because the L-part
annihilates constants.

The matrix is built from a candidate graph in compressed-sparse-row form:
the k-d-tree self-join of :mod:`pim.neighbors`, or, for the direct-scan
oracle, every pair.  One routine walks it in blocks of ``ROW_BLOCK`` rows:
it masks the candidates to the open support s < 1, evaluates the kernels,
weights and boundary addends for the whole block at once, and writes the
values into ``data`` and the kept columns back over the graph's column
array, which becomes the matrix's ``indices``.  A block is read before it
is written and the write offset never passes the read offset, so no second
column array exists.  The diagonal and the right-hand side are per-row sums
over contiguous slices in ascending column order, the same pairwise
summation a row summed on its own gets, so indexed and direct-scan
assembly produce bit-identical matrices — the direct scan is the audit
oracle for the indexed fast path.  Dense storage, for small clouds, is
that matrix converted with ``toarray``.

A point with no other point inside its support has a row that does not
couple it to the cloud; ``assemble`` rejects such clouds.  ``meta`` records
the number of boundary points, so that :func:`pim.solve.solve` can refuse a
boundary-free system, which is singular because L annihilates constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.sparse as sp

from .kernel import KernelParams, KernelProfile
from .neighbors import NeighborIndex
from .pointcloud import PointCloud

__all__ = ["LinearSystem", "assemble", "boundary_column_vector", "dump_matrixmarket"]

DENSE_CUTOFF = 512  # default storage switch; config-overridable
ROW_BLOCK = 128  # matrix rows per vectorized block; bounds the block temporaries


def _squared_lengths(parts: list) -> np.ndarray:
    """Squared lengths of vectors given one coordinate array each, in place.

    Bit for bit ``np.einsum("ij,ij->i", diff, diff)`` of the stacked
    coordinates: for up to three coordinates einsum adds the squares as
    (x0^2 + x2^2) + x1^2; past three, einsum sums them itself.  Gathering
    coordinate arrays takes half the time of gathering rows.
    """
    if len(parts) > 3:
        diff = np.stack(parts, axis=1)
        return np.einsum("ij,ij->i", diff, diff)
    for x in parts:
        x *= x
    sq = parts[0]
    for x in parts[:0:-1]:
        sq += x
    return sq


@dataclass
class LinearSystem:
    """Assembled matrix + right-hand side, immutable once built."""

    matrix: Union[np.ndarray, sp.csr_matrix]
    rhs: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)


def boundary_column_vector(cloud: PointCloud, params: KernelParams,
                           profile: KernelProfile, beta: float) -> np.ndarray:
    """g_i = (2/beta) sum_l Rbar_t(p_i, s_l) A_l; equals matrix @ 1."""
    from .kernel import eval_Rbar_t
    sb = cloud.points[cloud.boundary_indices]
    g = np.empty(cloud.n)
    for i in range(cloud.n):
        rbar = eval_Rbar_t(cloud.points[i], sb, params, profile)
        g[i] = (2.0 / beta) * np.sum(rbar * cloud.area_weights)
    return g


def assemble(cloud: PointCloud, params: KernelParams, profile: KernelProfile,
             beta: float, f, b, *,
             use_index: bool = True,
             dense_cutoff: int = DENSE_CUTOFF) -> LinearSystem:
    """Build the linear system for source f (per point) and boundary data b.

    ``use_index``: take the candidate pairs from a k-d-tree self-join;
    ``False`` takes every pair instead, the direct-scan test oracle, which
    costs O(n^2) time and memory and yields bit-identical output.
    ``dense_cutoff``: dense storage for n <= dense_cutoff, compressed sparse
    rows beyond.  Raises
    ``ValueError`` on non-finite ``f`` or ``b``, and on a point with no
    other point within the support radius.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    n = cloud.n
    f = np.asarray(f, dtype=float).ravel()
    if f.shape != (n,):
        raise ValueError(f"f length {f.shape[0]} != cloud size {n}")
    b = np.asarray(b, dtype=float).ravel()
    m = cloud.boundary_indices.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b length {b.shape[0]} != boundary size {m}")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(b))):
        raise ValueError("source f and boundary data b must be finite")

    points = cloud.points
    coords = np.ascontiguousarray(points.T)     # one row per coordinate
    vw = cloud.volume_weights
    aw = cloud.area_weights
    t = params.t
    inv4t = 1.0 / (4.0 * t)
    c_t = params.C_t
    two_over_beta = 2.0 / beta

    # point index -> position in the boundary list, -1 for interior
    bpos = np.full(n, -1, dtype=np.intp)
    bpos[cloud.boundary_indices] = np.arange(m)

    if use_index:
        cand_ptr, indices = NeighborIndex(points, params.support_radius).self_join()
    else:
        cand_ptr = np.arange(n + 1) * n  # every pair; n^2 < 2^31 for any n it can afford
        indices = np.tile(np.arange(n, dtype=np.int32), n)
    # row i's candidates are indices[cand_ptr[i]:cand_ptr[i + 1]]; fill compacts them
    data = np.empty(indices.shape[0])
    indptr = np.zeros(n + 1, dtype=indices.dtype)
    rhs = np.empty(n)
    add = np.add.reduce

    def fill(lo: int, hi: int) -> None:
        # rows lo:hi; the block's temporaries die when it returns
        counts = np.diff(cand_ptr[lo:hi + 1])
        cols = indices[cand_ptr[lo]:cand_ptr[hi]]
        # take and repeat gather x[cols] and x[rows], several times faster
        parts = [np.take(x, cols) for x in coords]
        for x, d in zip(coords, parts):
            d -= np.repeat(x[lo:hi], counts)
        s = _squared_lengths(parts)
        s *= inv4t
        del parts
        rows = np.repeat(np.arange(lo, hi, dtype=cols.dtype), counts)
        keep = s < 1.0
        if keep.all():      # the usual case: no candidate lies on or past the support
            ends = np.cumsum(counts)
        else:
            rows, cols, s = rows[keep], cols[keep], s[keep]
            ends = np.cumsum(np.bincount(rows - lo, minlength=hi - lo))
        rt = c_t * profile.R(s)
        rbar = c_t * profile.Rbar(s)
        vc = np.take(vw, cols)
        a = rt * vc / t
        pf = rbar * np.take(f, cols) * vc

        # Every row holds its own point exactly once, so dropping the self
        # entries shifts row k of the block back by k in a_off.
        on_diag = rows == cols
        a_off = a[~on_diag]
        lb = np.take(bpos, cols)
        is_b = lb >= 0
        lb = lb[is_b]
        rbar_b = rbar[is_b]
        aw_b = np.take(aw, lb)
        pb = rbar_b * np.take(b, lb) * aw_b
        # Per-row sums over contiguous slices with np.sum's own reduction
        # (np.add.reduce, minus np.sum's dispatch): the same pairwise
        # summation, hence the same bits, as summing each row on its own.
        # bincount or reduceat would sum in another order: reduceat differed
        # from per-slice reduce on 35 341 of 49 048 random segments (lengths
        # 1 to 699, standard normal values).  fromiter fills arrays of known
        # size; list comprehensions, as fast, grew lists through sizes that
        # the allocator kept cached high in the heap, which then stayed
        # untrimmed between solve-cap ops: peak RSS 142-147 MB against 130.
        nb = hi - lo
        ptr = [0] + ends.tolist()
        optr = [0] + (ends - np.arange(1, nb + 1)).tolist()     # ptr without the self entries
        bptr = [0] + np.cumsum(np.bincount(rows[is_b] - lo, minlength=nb)).tolist()
        diag = np.fromiter((add(a_off[p0:p1]) for p0, p1 in zip(optr, optr[1:])), float, nb)
        rsum = np.fromiter((add(pf[p0:p1]) for p0, p1 in zip(ptr, ptr[1:])), float, nb)
        bsum = np.fromiter((add(pb[q0:q1]) if q1 > q0 else 0.0     # boundary rows only
                            for q0, q1 in zip(bptr, bptr[1:])), float, nb)
        bsum *= two_over_beta       # rhs = two_over_beta * bsum + rsum, in place
        bsum += rsum
        rhs[lo:hi] = bsum

        base = int(indptr[lo])
        end = base + a.shape[0]
        vals = np.negative(a, out=data[base:end])
        vals[on_diag] = diag
        vals[is_b] += two_over_beta * rbar_b * aw_b
        indices[base:end] = cols
        indptr[lo + 1:hi + 1] = base + ends

    for lo in range(0, n, ROW_BLOCK):
        fill(lo, min(lo + ROW_BLOCK, n))
    isolated = np.flatnonzero(np.diff(indptr) == 1)
    if isolated.size:
        raise ValueError(
            f"{isolated.size} point(s), first index {isolated[0]}, have no other "
            f"point within the support radius {params.support_radius:.6g}: the "
            "kernel does not couple them to the cloud (refine the cloud or raise t)")

    # Where the exact cut dropped candidates, scipy keeps the first nnz
    # entries: a view, or a copy when most is slack, as for the direct scan.
    nnz = int(indptr[n])
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    dense = n <= dense_cutoff
    if dense:
        mat = mat.toarray()

    meta = {
        "t": t,
        "beta": beta,
        "n": n,
        "h": cloud.metadata.get("h"),
        "profile": profile.name,
        "support_radius": params.support_radius,
        "dense": dense,
        "fill_ratio": nnz / float(n * n),
        "boundary_points": m,
    }
    return LinearSystem(matrix=mat, rhs=rhs, meta=meta)


def dump_matrixmarket(system: LinearSystem, path) -> None:
    """Write the matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), sp.coo_matrix(system.matrix))
