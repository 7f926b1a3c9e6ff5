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

The boundary points are samples, so, as the reconstruction folds its h_j,
the data terms fold into one per-sample weight g_j = f_j V_j +
(2/beta) b_j A_j and the penalty into pen_j = A_j, the A_j terms on
boundary samples only: the rhs of row i is sum_j Rbar_t(p_i, p_j) g_j, and
entry (i, j) gains (2/beta) Rbar_t(p_i, p_j) pen_j.

Signs follow the positive form of the operator (diagonal positive,
off-diagonal kernel entries negative), so constants are reproduced
exactly: matrix @ 1 equals the boundary-column vector because the L-part
annihilates constants.

The matrix is built from a candidate graph in compressed-sparse-row form:
the k-d-tree self-join of :mod:`pim.neighbors`, or, for the direct-scan
oracle, every pair.  One routine walks it in blocks of ``ROW_BLOCK`` rows:
it masks the candidates to the open support s < 1, evaluates the kernels
and gathers the per-sample weights for the whole block at once, and writes
the values into ``data`` and the kept columns back over the graph's column
array, which becomes the matrix's ``indices``.  A block is read before it
is written and the write offset never passes the read offset, so no second
column array exists.  The diagonal and the right-hand side are per-row sums
over contiguous slices in ascending column order, the same pairwise
summation a row summed on its own gets, so indexed and direct-scan
assembly produce bit-identical matrices — the direct scan is the audit
oracle for the indexed fast path.  The matrix is CSR for every n; small
clouds are only flagged (``meta["dense"]``) for the direct solver, which
reads its band from the CSR arrays.

A point with no other point inside its support has a row that does not
couple it to the cloud; ``assemble`` rejects such clouds.  ``meta`` records
the number of boundary points, so that :func:`pim.solve.solve` can refuse a
boundary-free system, which is singular because L annihilates constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .kernel import KernelParams, KernelProfile
from .neighbors import NeighborIndex, _squared_lengths
from .pointcloud import PointCloud

__all__ = ["LinearSystem", "assemble", "dump_matrixmarket"]

DENSE_CUTOFF = 512  # default direct-solve switch; config-overridable
ROW_BLOCK = 128  # matrix rows per vectorized block; bounds the block temporaries


def _segment_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x[starts[i]:starts[i + 1]])`` for every i (the last to
    the end of ``x``), bit for bit: ``reduce`` adds the pairwise sum of a slice
    to 0.0, ``reduceat`` the pairwise sum of a segment's rest to its first
    element, so a 0.0 put in front of every segment makes them one expression.
    """
    return np.add.reduceat(np.insert(x, starts, 0.0), starts + np.arange(starts.shape[0]))


@dataclass
class LinearSystem:
    """Assembled matrix + right-hand side, immutable once built."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # shapes and format only: an O(nnz) check here would tax every GMRES solve
        if not (sp.issparse(self.matrix) and self.matrix.format == "csr"):
            raise TypeError(f"LinearSystem needs a scipy CSR matrix, got {type(self.matrix).__name__}")
        if np.ndim(self.rhs) != 1 or self.matrix.shape != (self.n, self.n):
            raise ValueError(f"matrix of shape {self.matrix.shape} does not fit "
                             f"rhs of shape {np.shape(self.rhs)}")

    @property
    def n(self) -> int:
        return self.rhs.shape[0]


def assemble(cloud: PointCloud, params: KernelParams, profile: KernelProfile,
             beta: float, f, b, *,
             use_index: bool = True,
             dense_cutoff: int = DENSE_CUTOFF) -> LinearSystem:
    """Build the linear system for source f (per point) and boundary data b.

    ``use_index``: take the candidate pairs from a k-d-tree self-join;
    ``False`` takes every pair instead, the direct-scan test oracle, which
    costs O(n^2) time and memory and yields bit-identical output.
    The matrix is always CSR; ``dense_cutoff`` only sets ``meta["dense"]``
    for n <= dense_cutoff, which sends ``solve``'s "auto" to the direct LU.
    Raises ``ValueError`` on non-finite ``f`` or ``b``, and on a point with
    no other point within the support radius.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    n = cloud.n
    f = np.asarray(f, dtype=float).ravel()
    if f.shape != (n,):
        raise ValueError(f"f length {f.shape[0]} != cloud size {n}")
    b = np.asarray(b, dtype=float).ravel()
    bi = cloud.boundary_indices
    if b.shape != bi.shape:
        raise ValueError(f"b length {b.shape[0]} != boundary size {bi.shape[0]}")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(b))):
        raise ValueError("source f and boundary data b must be finite")

    points = cloud.points
    coords = np.ascontiguousarray(points.T)     # one row per coordinate
    vw = cloud.volume_weights
    t = params.t
    inv4t = 1.0 / (4.0 * t)
    c_t = params.C_t
    two_over_beta = 2.0 / beta

    # per-sample Rbar_t weights g and pen; boundary indices are distinct
    g = f * vw
    g[bi] += two_over_beta * b * cloud.area_weights
    pen = np.zeros(n)
    pen[bi] = cloud.area_weights

    if use_index:
        cand_ptr, indices = NeighborIndex(points, params.support_radius).self_join()
    else:
        cand_ptr = np.arange(n + 1) * n  # every pair; n^2 < 2^31 for any n it can afford
        indices = np.tile(np.arange(n, dtype=np.int32), n)
    # row i's candidates are indices[cand_ptr[i]:cand_ptr[i + 1]]; fill compacts them
    data = np.empty(indices.shape[0])
    indptr = np.zeros(n + 1, dtype=indices.dtype)
    rhs = np.empty(n)

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
        a = rt * np.take(vw, cols) / t
        penalty = two_over_beta * rbar * np.take(pen, cols)

        # Every row holds its own point exactly once, so dropping the self
        # entries shifts row k of the block back by k in a[~on_diag].
        on_diag = rows == cols
        # Per-row sums over contiguous slices, each the same pairwise
        # summation, hence the same bits, as summing the row on its own.
        starts = np.concatenate(([0], ends[:-1]))
        diag = _segment_sums(a[~on_diag], starts - np.arange(hi - lo))  # without the self entries
        rhs[lo:hi] = _segment_sums(rbar * np.take(g, cols), starts)

        base = int(indptr[lo])
        end = base + a.shape[0]
        vals = np.subtract(penalty, a, out=data[base:end])
        vals[on_diag] = diag + penalty[on_diag]
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

    meta = {
        "t": t,
        "beta": beta,
        "n": n,
        "h": cloud.metadata.get("h"),
        "profile": profile.name,
        "support_radius": params.support_radius,
        "dense": n <= dense_cutoff,
        "fill_ratio": nnz / float(n * n),
        "boundary_points": bi.shape[0],
    }
    return LinearSystem(matrix=mat, rhs=rhs, meta=meta)


def dump_matrixmarket(system: LinearSystem, path) -> None:
    """Write the matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    # scipy 1.17's mmwrite, given a path in a missing directory, writes nothing
    # and raises nothing; opening the file here raises the OSError
    with open(path, "wb") as fh:
        mmwrite(fh, sp.coo_matrix(system.matrix))
