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
only over the samples and boundary points a k-d-tree neighbor index finds
within that radius; the per-query sums are accumulated with ``bincount``
over blocks of ``CHUNK`` queries.
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
    _uS_minus_b: np.ndarray = field(init=False, repr=False)
    _samples: NeighborIndex = field(init=False, repr=False)
    _boundary: NeighborIndex = field(init=False, repr=False)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        n = self.cloud.n
        m = self.cloud.boundary_indices.shape[0]
        self.u = np.asarray(self.u, dtype=float).ravel()
        self.f = np.asarray(self.f, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.u.shape != (n,):
            raise ValueError("u length mismatch")
        if self.f.shape != (n,):
            raise ValueError("f length mismatch")
        if self.b.shape != (m,):
            raise ValueError("b length mismatch")
        self._uS_minus_b = self.u[self.cloud.boundary_indices] - self.b
        radius = self.params.support_radius
        self._samples = NeighborIndex(self.cloud.points, radius)
        self._boundary = NeighborIndex(self.cloud.boundary_points, radius)

    # -- core chunk evaluation ------------------------------------------------

    def _chunk(self, X: np.ndarray, want_grad: bool):
        """Return (w, num) and, if requested, their gradients over a chunk.

        Each sum runs over the (query, point) pairs within the support
        radius; ``rows`` names the query of a pair, ``cols`` its point.
        """
        cl, t = self.cloud, self.params.t
        c_t, beta = self.params.C_t, self.beta
        V = cl.volume_weights
        prof = self.profile
        q = X.shape[0]

        rows, cols = self._samples.pairs(X)
        diff = X[rows] - cl.points[cols]                 # (pairs, d)
        s = np.einsum("pd,pd->p", diff, diff) / (4.0 * t)
        rt = c_t * prof.R(s)
        rbar = c_t * prof.Rbar(s)
        brows, bcols = self._boundary.pairs(X)
        diff_s = X[brows] - self._boundary.points[bcols]  # (boundary pairs, d)
        ss = np.einsum("pd,pd->p", diff_s, diff_s) / (4.0 * t)
        rbar_s = c_t * prof.Rbar(ss)

        v = V[cols]
        uv = (self.u * V)[cols]
        fv = (self.f * V)[cols]
        ga = (self._uS_minus_b * cl.area_weights)[bcols]
        w = _row_sums(rows, rt * v, q)
        num = (_row_sums(rows, rt * uv, q)
               - (2.0 * t / beta) * _row_sums(brows, rbar_s * ga, q)
               + t * _row_sums(rows, rbar * fv, q))
        if not want_grad:
            return w, num, None, None

        # d/dx R_t = C_t R'(s) (x-y)/(2t);  d/dx Rbar_t = -R_t (x-y)/(2t)
        drt = (c_t / (2.0 * t)) * prof.Rprime(s)[:, None] * diff
        drbar = (-1.0 / (2.0 * t)) * rt[:, None] * diff
        rt_s = c_t * prof.R(ss)
        drbar_s = (-1.0 / (2.0 * t)) * rt_s[:, None] * diff_s

        gw = _row_sums(rows, drt * v[:, None], q)
        gnum = (_row_sums(rows, drt * uv[:, None], q)
                - (2.0 * t / beta) * _row_sums(brows, drbar_s * ga[:, None], q)
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
