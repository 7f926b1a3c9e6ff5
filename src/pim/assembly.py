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

Every row is built by one shared routine that masks candidates to the open
support s < 1 and sums in ascending column order, so assembly with the
k-d-tree neighbor index and assembly by direct scan produce bit-identical
matrices — the direct scan is the audit oracle for the indexed fast path.
Rows are always collected as compressed sparse rows; dense storage, for
small clouds, is that matrix converted with ``toarray``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .kernel import KernelParams, KernelProfile
from .neighbors import NeighborIndex
from .pointcloud import PointCloud

__all__ = ["LinearSystem", "assemble", "boundary_column_vector", "dump_matrixmarket"]

DENSE_CUTOFF = 512  # default storage switch; config-overridable


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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def residual_norm(self, x: np.ndarray) -> float:
        r = self.matrix @ x - self.rhs
        denom = max(float(np.linalg.norm(self.rhs)), np.finfo(float).tiny)
        return float(np.linalg.norm(r) / denom)


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
             use_index: Optional[bool] = None,
             dense: Optional[bool] = None,
             dense_cutoff: int = DENSE_CUTOFF) -> LinearSystem:
    """Build the linear system for source f (per point) and boundary data b.

    ``use_index``: take each row's candidates from a k-d-tree neighbor
    index (default for clouds above 128 points) instead of scanning every
    point; either route yields bit-identical output.  ``dense``: force
    storage; default is dense for n <= dense_cutoff, compressed sparse rows
    beyond.  Raises ``ValueError`` on non-finite ``f`` or ``b``.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
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
    if dense is None:
        dense = n <= dense_cutoff
    if use_index is None:
        use_index = n > 128

    points = cloud.points
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
        candidates = NeighborIndex(points, params.support_radius).query_many(points)
    else:
        candidates = itertools.repeat(np.arange(n, dtype=np.intp), n)

    rhs = np.empty(n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    col_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for i, cand in enumerate(candidates):
        diff = points[cand] - points[i]
        s = np.einsum("ij,ij->i", diff, diff) * inv4t
        keep = s < 1.0
        nbr = cand[keep]
        sk = s[keep]
        rt = c_t * profile.R(sk)
        rbar = c_t * profile.Rbar(sk)
        a = rt * vw[nbr] / t

        self_pos = np.searchsorted(nbr, i)
        off = np.ones(nbr.shape[0], dtype=bool)
        off[self_pos] = False
        diag = np.sum(a[off])

        vals = np.where(off, -a, diag)
        lb = bpos[nbr]
        is_b = lb >= 0
        if np.any(is_b):
            addend = np.zeros_like(vals)
            addend[is_b] = two_over_beta * rbar[is_b] * aw[lb[is_b]]
            vals = vals + addend
            rhs_b = two_over_beta * np.sum(rbar[is_b] * b[lb[is_b]] * aw[lb[is_b]])
        else:
            rhs_b = 0.0
        rhs[i] = rhs_b + np.sum(rbar * f[nbr] * vw[nbr])

        col_chunks.append(nbr)
        val_chunks.append(vals)
        indptr[i + 1] = indptr[i] + nbr.shape[0]

    mat = sp.csr_matrix(
        (np.concatenate(val_chunks), np.concatenate(col_chunks), indptr),
        shape=(n, n),
    )
    nnz = mat.nnz
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
    }
    return LinearSystem(matrix=mat, rhs=rhs, meta=meta)


def dump_matrixmarket(system: LinearSystem, path) -> None:
    """Write the matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), sp.coo_matrix(system.matrix))
