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
When the samples lie on a sphere about the origin, with intrinsic dimension
one below the ambient, the gradient is projected onto the tangent plane with
the radial normal, whether the cloud was generated or loaded; every other
cloud gets the raw ambient gradient.

The boundary points are samples, so the two Rbar_t sums fold into one
per-sample weight h_j = t f_j V_j - (2t/beta) (u_j - b_j) A_j, the last term
on boundary samples only, and the numerator is
sum_j [R_t(x,p_j) u_j V_j + Rbar_t(x,p_j) h_j].

The kernels vanish beyond the support radius 2 sqrt(t), so each query sums
only over the samples within that radius.  Queries are evaluated in blocks of
``CHUNK``.  A pass of at least as many queries as samples, none of them a
quarter to one support radius from every sample, takes each block's
in-support sample pairs from one self-join of the samples, other passes from
a k-d-tree join per block.  The squared distances the exact cut measured are
the kernel arguments, so one ``profile.terms`` call gives each pair's R, Rbar
and R'.  Every pass sums values and gradients: a block makes two value sums
and two per coordinate, all in one ``np.add.reduceat`` over each query's run
of pairs, in ascending sample order, the runs cut by the join's per-query
counts: each sum is the run's first term plus numpy's pairwise sum of the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelParams, KernelProfile
from .neighbors import NeighborIndex
from .pointcloud import PointCloud

__all__ = ["Interpolant", "OutOfSupport"]

CHUNK = 128  # query points per evaluation block
# samples lie on a sphere when their radii spread by less than this, relative
SPHERE_RTOL = 1e-12  # to the smallest; generated caps spread by at most 5.6e-16


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
    _weights: np.ndarray = field(init=False, repr=False)     # rows V, uV and h
    _samples: NeighborIndex = field(init=False, repr=False)
    _sphere: bool = field(init=False, repr=False)
    _memo: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
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
        t, bi, V = self.params.t, cl.boundary_indices, cl.volume_weights
        # V, uV and the per-sample Rbar_t weight h; boundary indices are distinct
        self._weights = np.stack([V, self.u * V, t * self.f * V])
        self._weights[2, bi] -= (2.0 * t / self.beta) * (self.u[bi] - self.b) * cl.area_weights
        self._samples = NeighborIndex(cl.points, self.params.support_radius)
        r = np.linalg.norm(cl.points, axis=1)
        self._sphere = cl.intrinsic_dim == cl.ambient_dim - 1 and np.ptp(r) < SPHERE_RTOL * r.min()

    # -- core chunk evaluation ------------------------------------------------

    def _chunk(self, X: np.ndarray, via):
        """Return (w, num) and their gradients over a chunk.

        Each sum runs over the (query, sample) pairs within the support
        radius, in query order: ``counts`` holds each query's number of pairs
        and ``cols`` their samples.  ``w`` sums R_t V and ``num`` R_t uV +
        Rbar_t h; ``via`` as ``join``'s.  The pair terms are the rows of one
        array, so one ``np.add.reduceat`` over each query's run gives every sum.
        """
        t, c_t = self.params.t, self.params.C_t
        q = X.shape[0]

        counts, cols, diff, sq = self._samples.join(X, via)     # diff = p_j - x
        d = diff.shape[1]
        # R_t, Rbar_t and, with y = x - p_j and s = |y|^2/4t, grad R_t = (C_t/2t) R'(s) y
        # and grad Rbar_t = -R_t y/(2t), scaled in place; drt and g carry the sign of diff = -y
        rt, rbar, drt = self.profile.terms(sq / (4.0 * t))
        rt *= c_t
        rbar *= c_t
        drt *= -c_t / (2.0 * t)
        v, uv, h = np.take(self._weights, cols, axis=1)
        # rows R_t V and R_t uV + Rbar_t h, then drt V d_k and g d_k per coordinate
        terms = np.empty((2 + 2 * d, cols.shape[0]))
        np.multiply(rt, v, out=terms[0])
        np.multiply(rt, uv, out=terms[1])
        terms[1] += rbar * h
        g = drt * uv + rt * h / (2.0 * t)
        np.multiply(drt * v, diff.T, out=terms[2:2 + d])
        np.multiply(g, diff.T, out=terms[2 + d:])

        # A query without pairs has an empty run, where reduceat would give
        # the next pair's term (or fail, at the last query): only runs are summed.
        starts = np.cumsum(counts) - counts
        has = counts > 0
        sums = np.zeros((terms.shape[0], q))
        sums[:, has] = np.add.reduceat(terms, starts[has], axis=1)
        return sums[0], sums[1], sums[2:2 + d].T, sums[2 + d:].T

    def _queries(self, X) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
        if X.shape[1] != self.cloud.ambient_dim:
            raise ValueError(
                f"query dimension {X.shape[1]} != ambient {self.cloud.ambient_dim}")
        return X

    def _run(self, X: np.ndarray):
        q = X.shape[0]
        vals = np.empty(q)
        grads = np.empty((q, X.shape[1]))
        # On jittered disk (2 044) and cap (8 188) samples the two joins cost about the same at
        # q = n; at q = 4n the graph's took 35-55 against 67-83 ms and 0.45-0.50 against 0.65-0.90 s.
        via = self._samples.candidates(X) if q >= self.cloud.n else None
        for lo in range(0, q, CHUNK):
            hi = min(lo + CHUNK, q)
            block = None if via is None else (via[0][lo:hi], via[1][lo:hi], via[2])
            w, num, gw, gnum = self._chunk(X[lo:hi], block)
            bad = np.flatnonzero(w <= 0.0)
            if bad.size:
                raise OutOfSupport(X[lo + bad[0]])
            vals[lo:hi] = num / w
            grads[lo:hi] = (gnum * w[:, None] - num[:, None] * gw) / (w * w)[:, None]
        return vals, grads

    # -- public API -----------------------------------------------------------

    def eval_many(self, X) -> np.ndarray:
        return self._run(self._queries(X))[0]

    def eval(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def grad_many(self, X) -> np.ndarray:
        return self.value_and_grad_many(X)[1]

    def value_and_grad_many(self, X):
        """Values and gradients in one pass over the pairs; returns (vals, grads).

        The values are :meth:`eval_many`'s.  On a sphere's samples the gradients
        are projected onto the tangent planes with each query's radial normal.
        """
        X = self._queries(X)
        vals, grads = self._run(X)
        if self._sphere:
            nrm = X / np.linalg.norm(X, axis=1, keepdims=True)
            grads = grads - np.einsum("qd,qd->q", grads, nrm)[:, None] * nrm
        return vals, grads

    def on_cloud(self, cloud: PointCloud):
        """Read-only (vals, grads) at ``cloud.points``, as :meth:`value_and_grad_many` gives them.

        One :meth:`value_and_grad_many` pass, kept for the last cloud given
        and keyed by the object itself: a PointCloud is frozen and its arrays
        read-only, so the same object always asks for the same pass.
        """
        if not (self._memo and self._memo[0] is cloud):
            vals, grads = self.value_and_grad_many(cloud.points)
            vals.setflags(write=False)
            grads.setflags(write=False)
            self._memo = (cloud, vals, grads)
        return self._memo[1], self._memo[2]

    def grad(self, x) -> np.ndarray:
        return self.grad_many(np.asarray(x, dtype=float).reshape(1, -1))[0]
