"""Smooth reconstruction of the discrete solution.

Given sample values u solving the assembled system with source f and
boundary data b, the reconstruction at any point x inside the kernel
support of the cloud is the ratio

  I(x) = [ sum_j R_t(x,p_j) u_j V_j
           - (2t/beta) sum_l Rbar_t(x,s_l) (u_l - b_l) A_l
           + t sum_j Rbar_t(x,p_j) f_j V_j ] / sum_j R_t(x,p_j) V_j.

Rearranging row i of the linear system shows I(p_i) = u_i exactly — the
reconstruction interpolates the discrete solution — and I inherits the
kernel's smoothness, so ambient gradients follow from the quotient rule.
For clouds sampled from the unit sphere the gradient is projected onto the
analytic tangent plane (radial normal); clouds of unknown provenance get
the raw ambient gradient.

The kernels vanish beyond the support radius 2 sqrt(t), so each query sums
only over the samples within that radius.  Queries are evaluated in blocks
of ``CHUNK``: one k-d-tree join per block finds the block's in-support
sample pairs, and the difference vectors of its exact radius cut give every
kernel argument.  The boundary points are samples under the same cut, so
the boundary sums run over the subset of those pairs whose sample is a
boundary point; no second search or distance pass is made.  The per-query
sums are accumulated with ``bincount`` in pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelParams, KernelProfile
from .neighbors import NeighborIndex
from .pointcloud import PointCloud

__all__ = ["Interpolant", "OutOfSupport"]

CHUNK = 256  # query points per evaluation block


def _row_sums(rows: np.ndarray, vals: np.ndarray, q: int) -> np.ndarray:
    """Sum per-pair values into their q query rows; vals is (pairs,) or (pairs, d)."""
    if vals.ndim == 1:
        return np.bincount(rows, weights=vals, minlength=q)
    return np.column_stack([np.bincount(rows, weights=col, minlength=q)
                            for col in vals.T])


class OutOfSupport(ValueError):
    """Query point not covered by any sample's kernel support."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)
        super().__init__(
            f"point {self.point.tolist()} is beyond the support radius of every sample"
        )


@dataclass
class Interpolant:
    """Reconstruction state: cloud, kernel, penalty weight and data vectors."""

    cloud: PointCloud
    params: KernelParams
    profile: KernelProfile
    beta: float
    u: np.ndarray
    f: np.ndarray
    b: np.ndarray
    _uV: np.ndarray = field(init=False, repr=False)
    _fV: np.ndarray = field(init=False, repr=False)
    _gA: np.ndarray = field(init=False, repr=False)
    _bpos: np.ndarray = field(init=False, repr=False)
    _samples: NeighborIndex = field(init=False, repr=False)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        cl = self.cloud
        n = cl.n
        m = cl.boundary_indices.shape[0]
        self.u = np.asarray(self.u, dtype=float).ravel()
        self.f = np.asarray(self.f, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.u.shape != (n,):
            raise ValueError("u length mismatch")
        if self.f.shape != (n,):
            raise ValueError("f length mismatch")
        if self.b.shape != (m,):
            raise ValueError("b length mismatch")
        self._uV = self.u * cl.volume_weights
        self._fV = self.f * cl.volume_weights
        self._gA = (self.u[cl.boundary_indices] - self.b) * cl.area_weights
        # boundary position of each sample, -1 for interior samples
        self._bpos = np.full(n, -1, dtype=np.intp)
        self._bpos[cl.boundary_indices] = np.arange(m)
        self._samples = NeighborIndex(cl.points, self.params.support_radius)

    # -- core chunk evaluation ------------------------------------------------

    def _chunk(self, X: np.ndarray, want_grad: bool):
        """Return (w, num) and, if requested, their gradients over a chunk.

        Each sum runs over the (query, sample) pairs within the support
        radius; ``rows`` names the query of a pair, ``cols`` its sample.  The
        boundary sums take the pairs whose sample is a boundary point, with
        ``brows`` their queries and ``bpos`` their boundary positions.
        """
        t, c_t, beta = self.params.t, self.params.C_t, self.beta
        prof = self.profile
        q = X.shape[0]

        rows, cols, diff = self._samples.join(X)
        diff = -diff                                     # x - p_j, exactly
        s = np.einsum("pd,pd->p", diff, diff) / (4.0 * t)
        rt = c_t * prof.R(s)
        rbar = c_t * prof.Rbar(s)
        bpos = self._bpos[cols]
        isb = bpos >= 0
        brows, bpos = rows[isb], bpos[isb]

        v = self.cloud.volume_weights[cols]
        uv = self._uV[cols]
        fv = self._fV[cols]
        ga = self._gA[bpos]
        w = _row_sums(rows, rt * v, q)
        num = (_row_sums(rows, rt * uv, q)
               - (2.0 * t / beta) * _row_sums(brows, rbar[isb] * ga, q)
               + t * _row_sums(rows, rbar * fv, q))
        if not want_grad:
            return w, num, None, None

        # d/dx R_t = C_t R'(s) (x-y)/(2t);  d/dx Rbar_t = -R_t (x-y)/(2t)
        drt = (c_t / (2.0 * t)) * prof.Rprime(s)[:, None] * diff
        drbar = (-1.0 / (2.0 * t)) * rt[:, None] * diff

        gw = _row_sums(rows, drt * v[:, None], q)
        gnum = (_row_sums(rows, drt * uv[:, None], q)
                - (2.0 * t / beta) * _row_sums(brows, drbar[isb] * ga[:, None], q)
                + t * _row_sums(rows, drbar * fv[:, None], q))
        return w, num, gw, gnum

    def _run(self, X: np.ndarray, want_grad: bool):
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
        if X.shape[1] != self.cloud.ambient_dim:
            raise ValueError(
                f"query dimension {X.shape[1]} != ambient {self.cloud.ambient_dim}")
        q = X.shape[0]
        vals = np.empty(q)
        grads = np.empty((q, X.shape[1])) if want_grad else None
        for lo in range(0, q, CHUNK):
            hi = min(lo + CHUNK, q)
            w, num, gw, gnum = self._chunk(X[lo:hi], want_grad)
            bad = np.flatnonzero(w <= 0.0)
            if bad.size:
                raise OutOfSupport(X[lo + bad[0]])
            vals[lo:hi] = num / w
            if want_grad:
                grads[lo:hi] = (gnum * w[:, None] - num[:, None] * gw) / (w * w)[:, None]
        return vals, grads

    # -- public API -----------------------------------------------------------

    def weight(self, X) -> np.ndarray:
        """Denominator w(x) = sum_j R_t(x, p_j) V_j for each query point."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], CHUNK):
            hi = min(lo + CHUNK, X.shape[0])
            w, _, _, _ = self._chunk(X[lo:hi], False)
            out[lo:hi] = w
        return out

    def eval_many(self, X) -> np.ndarray:
        vals, _ = self._run(X, want_grad=False)
        return vals

    def eval(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def _project(self, X: np.ndarray, G: np.ndarray, project: str) -> np.ndarray:
        if project == "none":
            return G
        shape = self.cloud.metadata.get("shape")
        if project == "auto" and shape != "spherical_cap":
            return G
        # tangent-plane projection with the analytic radial normal
        nrm = X / np.linalg.norm(X, axis=1, keepdims=True)
        return G - np.einsum("qd,qd->q", G, nrm)[:, None] * nrm

    def grad_many(self, X, project: str = "auto") -> np.ndarray:
        return self.value_and_grad_many(X, project)[1]

    def value_and_grad_many(self, X, project: str = "auto"):
        """Values and gradients in one pass over the pairs; returns (vals, grads).

        The values are bit-identical to :meth:`eval_many`'s: both come out of
        the same per-block sums.
        """
        if project not in ("auto", "none", "sphere"):
            raise ValueError(f"unknown projection mode {project!r}")
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
        vals, grads = self._run(X, want_grad=True)
        return vals, self._project(X, grads, project)

    def grad(self, x, project: str = "auto") -> np.ndarray:
        return self.grad_many(np.asarray(x, dtype=float).reshape(1, -1), project)[0]
