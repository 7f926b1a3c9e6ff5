"""Brute-force references the tests check the library against.

Each routine here is a direct, loop-level evaluation of a quantity the
library computes another way: the finite-difference Laplacian that guards
the hand-derived source terms of the manufactured cases, each kernel term
evaluated on its own, the kernel gradients of the dense reconstruction
oracle, the kernel Laplacian L and the penalized operator K one point at a
time and L by a dense pairwise sum, the boundary column g = K 1,
the LAPACK band storage of a dense matrix copied one diagonal at a time, a
neighbour search by direct scan, assembly over every pair, and the
reconstruction's sums one query at a time.  None of them is part of a
solve, so they live beside the tests rather than in ``pim``.
"""

from __future__ import annotations

import math

import numpy as np

from pim.analysis import ManufacturedCase
from pim.assembly import LinearSystem, fill
from pim.kernel import (KernelParams, KernelProfile, _diff_and_arg, cubic_profile,
                        eval_Rbar_t, eval_Rt)
from pim.neighbors import NeighborIndex, _squared_lengths
from pim.operators import _as_field
from pim.pointcloud import PointCloud

# ---------------------------------------------------------------------------
# finite-difference guard on the hand-derived f
# ---------------------------------------------------------------------------


def _random_interior_points(case: ManufacturedCase, count: int, rng) -> np.ndarray:
    """Random manifold points at least 5% of the domain scale from the boundary."""
    spec = case.spec
    if spec.shape == "interval":
        margin = 0.05 * (spec.b - spec.a)
        x = rng.uniform(spec.a + margin, spec.b - margin, size=count)
        return x[:, None]
    if spec.shape == "rectangle":
        wx, wy = spec.widths
        x = rng.uniform(0.05 * wx, 0.95 * wx, size=count)
        y = rng.uniform(0.05 * wy, 0.95 * wy, size=count)
        return np.column_stack([x, y])
    if spec.shape == "disk":
        r = np.sqrt(rng.uniform(0.0, 0.95 ** 2, size=count))
        th = rng.uniform(0.0, 2.0 * math.pi, size=count)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])
    # spherical cap: z above the rim by 5% of the cap height
    z = rng.uniform(spec.z0 + 0.05 * (1.0 - spec.z0), 1.0, size=count)
    th = rng.uniform(0.0, 2.0 * math.pi, size=count)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def _fd_laplacian_flat(u_fn, X: np.ndarray, step: float) -> np.ndarray:
    lap = np.zeros(X.shape[0])
    u0 = u_fn(X)
    for axis in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[axis] = step
        lap += (u_fn(X + e) - 2.0 * u0 + u_fn(X - e)) / (step * step)
    return lap


def _tangent_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([0.0, 0.0, 1.0]) if abs(x[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(x, a)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(x, e1)


def _fd_laplacian_sphere(u_fn, X: np.ndarray, step: float) -> np.ndarray:
    # Chart y(s) = (x + s1 e1 + s2 e2)/|x + ...| has identity metric and
    # vanishing Christoffel symbols at s = 0, so the intrinsic Laplacian is
    # the plain sum of second differences of the pullback.
    lap = np.empty(X.shape[0])
    for i, x in enumerate(X):
        e1, e2 = _tangent_basis(x)
        acc = -4.0 * float(u_fn(x[None, :])[0])
        for e in (e1, e2):
            for sgn in (1.0, -1.0):
                y = x + sgn * step * e
                y /= np.linalg.norm(y)
                acc += float(u_fn(y[None, :])[0])
        lap[i] = acc / (step * step)
    return lap


def fd_laplacian_check(case: ManufacturedCase, n_points: int = 100,
                       seed: int = 0, step: float = 1e-4) -> float:
    """Max relative mismatch between -FD-Laplacian(u) and f at random points.

    Guards the hand-derived source terms; relative to max(1, |f|).
    """
    rng = np.random.default_rng(seed)
    X = _random_interior_points(case, n_points, rng)
    if case.spec.shape == "spherical_cap":
        lap = _fd_laplacian_sphere(case.u, X, step)
    else:
        lap = _fd_laplacian_flat(case.u, X, step)
    fx = case.f(X)
    rel = np.abs(-lap - fx) / np.maximum(1.0, np.abs(fx))
    return float(rel.max())


# ---------------------------------------------------------------------------
# kernel profiles, one term at a time
# ---------------------------------------------------------------------------

def _cubic_R(r):
    w = np.maximum(1.0 - r, 0.0)
    return w * w * w


def _cubic_Rbar(r):
    w = np.maximum(1.0 - r, 0.0)
    return 0.25 * w * w * w * w


def _cubic_Rprime(r):
    w = np.maximum(1.0 - r, 0.0)
    return -3.0 * w * w


def _tgauss_R(r):
    w = np.maximum(1.0 - r, 0.0)
    return np.exp(-r) * w * w * w


def _tgauss_Rbar(r):
    w = np.maximum(1.0 - r, 0.0)
    return np.where(r < 1.0, 6.0 * math.exp(-1.0) + np.exp(-r) * (
        w * w * w - 3.0 * w * w + 6.0 * w - 6.0), 0.0)


def _tgauss_Rprime(r):
    w = np.maximum(1.0 - r, 0.0)
    return -np.exp(-r) * w * w * (w + 3.0)


#: (R, Rbar, R') of each built-in profile, each term recomputing its own w
#: (and exp(-r)): the reference ``KernelProfile.terms`` must equal bit for bit
PER_TERM = {
    "cubic": (_cubic_R, _cubic_Rbar, _cubic_Rprime),
    "truncated_gaussian": (_tgauss_R, _tgauss_Rbar, _tgauss_Rprime),
}


# ---------------------------------------------------------------------------
# kernel gradients
# ---------------------------------------------------------------------------

def grad_Rt_x(x, y, params: KernelParams, profile: KernelProfile = cubic_profile):
    """Gradient of R_t(x, y) with respect to x: C_t R'(s) (x - y) / (2t)."""
    diff, s = _diff_and_arg(x, y, params.t)
    coeff = params.C_t * profile.Rprime(s) / (2.0 * params.t)
    return np.expand_dims(coeff, -1) * diff


def grad_Rbar_t_x(x, y, params: KernelParams, profile: KernelProfile = cubic_profile):
    """Gradient of Rbar_t with respect to x.

    Since Rbar' = -R this is -C_t R(s) (x - y) / (2t); evaluated directly
    from R so the pairing with eval_Rt stays exact.
    """
    diff, s = _diff_and_arg(x, y, params.t)
    coeff = -params.C_t * profile.R(s) / (2.0 * params.t)
    return np.expand_dims(coeff, -1) * diff


# ---------------------------------------------------------------------------
# the kernel Laplacian L and the penalized operator K = L + boundary penalty
# ---------------------------------------------------------------------------

def apply_Lth(cloud: PointCloud, params: KernelParams, profile: KernelProfile,
              u, i: int) -> float:
    """Integral-kernel Laplacian of the sample vector u at point i:
    L u(p_i) = (1/t) sum_j R_t(p_i, p_j) (u_i - u_j) V_j.

    The sum formally runs over all points; entries beyond the support
    radius 2*sqrt(t) are exactly zero, so this equals the neighbor-set sum.
    """
    u = _as_field(u, cloud.n)
    rt = eval_Rt(cloud.points[i], cloud.points, params, profile)
    return float(np.sum(rt * (u[i] - u) * cloud.volume_weights) / params.t)


def apply_Lth_all(cloud: PointCloud, params: KernelParams,
                  profile: KernelProfile, u) -> np.ndarray:
    """Vector of apply_Lth values at every sample point (dense pairwise)."""
    u = _as_field(u, cloud.n)
    rt = eval_Rt(cloud.points[:, None, :], cloud.points[None, :, :],
                 params, profile)                     # (n, n)
    du = u[:, None] - u[None, :]
    return (rt * du * cloud.volume_weights[None, :]).sum(axis=1) / params.t


def _boundary_sum(cloud: PointCloud, params: KernelParams,
                  profile: KernelProfile, beta: float,
                  values_on_S: np.ndarray, i: int) -> float:
    sb = cloud.points[cloud.boundary_indices]
    rbar = eval_Rbar_t(cloud.points[i], sb, params, profile)
    return float((2.0 / beta) * np.sum(rbar * values_on_S * cloud.area_weights))


def apply_Kth(cloud: PointCloud, params: KernelParams, profile: KernelProfile,
              beta: float, u, i: int) -> float:
    """apply_Lth plus the (2/beta)-weighted boundary penalty at point i:
    (2/beta) sum_l Rbar_t(p_i, s_l) u_l A_l, the operator the solver inverts."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    u = _as_field(u, cloud.n)
    return apply_Lth(cloud, params, profile, u, i) + _boundary_sum(
        cloud, params, profile, beta, u[cloud.boundary_indices], i)


def boundary_column_vector(cloud: PointCloud, params: KernelParams,
                           profile: KernelProfile, beta: float) -> np.ndarray:
    """g_i = (2/beta) sum_l Rbar_t(p_i, s_l) A_l; equals matrix @ 1."""
    sb = cloud.points[cloud.boundary_indices]
    g = np.empty(cloud.n)
    for i in range(cloud.n):
        rbar = eval_Rbar_t(cloud.points[i], sb, params, profile)
        g[i] = (2.0 / beta) * np.sum(rbar * cloud.area_weights)
    return g


# ---------------------------------------------------------------------------
# LAPACK band storage, one diagonal at a time
# ---------------------------------------------------------------------------

def band_storage(a: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Dense ``a`` in LAPACK band storage for ``dgbtrf``: ``a[i, j]`` at
    ``[kl + ku + i - j, j]``, under ``kl`` zero rows that hold the fill-in of
    the row interchanges."""
    n = a.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for d in range(-kl, ku + 1):
        ab[kl + ku - d, max(d, 0):n + min(d, 0)] = np.diagonal(a, d)
    return ab


# ---------------------------------------------------------------------------
# neighbour search by direct scan
# ---------------------------------------------------------------------------


def query_brute(index: NeighborIndex, x: np.ndarray) -> np.ndarray:
    """Indices of ``index``'s points within its radius of ``x``, by a direct
    O(n) scan through the library's own squared-distance routine; the oracle
    for ``NeighborIndex.join`` and ``NeighborIndex.query_self``."""
    x = np.asarray(x, dtype=float).ravel()
    keep = _squared_lengths((index.points - x).T) <= index.radius * index.radius
    return np.flatnonzero(keep).astype(np.intp)


# ---------------------------------------------------------------------------
# assembly by direct scan
# ---------------------------------------------------------------------------


def assemble_direct(cloud: PointCloud, *args, **kwargs) -> LinearSystem:
    """``assemble(cloud, *args, **kwargs)`` with every pair as the candidate
    graph in place of the k-d-tree self-join: O(n^2) time and memory, and the
    oracle the indexed assembly must equal bit for bit."""
    n = cloud.n
    every_pair = (np.arange(n + 1) * n, np.tile(np.arange(n, dtype=np.int32), n))
    return fill(cloud, every_pair, *args, **kwargs)


# ---------------------------------------------------------------------------
# reconstruction sums, one query at a time
# ---------------------------------------------------------------------------


def _run_sum(run: np.ndarray) -> float:
    """A run's sum as ``np.add.reduceat`` forms it: the first term plus
    numpy's pairwise sum of the rest; 0 for an empty run."""
    return run[0] + np.add.reduce(run[1:]) if run.size else 0.0


def reconstruction_sums(interp, X: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(w, num, gw, gnum)`` of ``Interpolant._chunk`` at the queries ``X``,
    one query at a time.  Each query's pairs are the samples within the
    support radius by a direct scan, in ascending order, measured with
    ``_squared_lengths``; the pair terms are ``_chunk``'s arithmetic on them,
    and each sum is that of its run, so the result is the library's to the
    bit.  The weights uV and h are formed here from ``interp``'s data."""
    cl, params, prof = interp.cloud, interp.params, interp.profile
    t, c_t, r2 = params.t, params.C_t, params.support_radius ** 2
    V = cl.volume_weights
    uV = interp.u * V
    h = t * interp.f * V
    bi = cl.boundary_indices
    h[bi] -= (2.0 * t / interp.beta) * (interp.u[bi] - interp.b) * cl.area_weights
    q, d = X.shape
    w, num = np.zeros(q), np.zeros(q)
    gw, gnum = np.zeros((q, d)), np.zeros((q, d))
    for k, x in enumerate(X):
        diff = (cl.points - x).T
        sq = _squared_lengths(diff)
        j = np.flatnonzero(sq <= r2)
        diff, s = diff[:, j], sq[j] / (4.0 * t)
        rt = c_t * prof.R(s)
        w[k] = _run_sum(rt * V[j])
        num[k] = _run_sum(rt * uV[j] + c_t * prof.Rbar(s) * h[j])
        drt = (-c_t / (2.0 * t)) * prof.Rprime(s)
        g = drt * uV[j] + rt * h[j] / (2.0 * t)
        for a in range(d):
            gw[k, a] = _run_sum(drt * V[j] * diff[a])
            gnum[k, a] = _run_sum(g * diff[a])
    return w, num, gw, gnum


def reconstruction_by_query(interp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and unprojected gradients of ``interp`` at ``X`` by the quotient
    rule on :func:`reconstruction_sums`, as ``Interpolant._run`` applies it."""
    w, num, gw, gnum = reconstruction_sums(interp, X)
    return num / w, (gnum * w[:, None] - num[:, None] * gw) / (w * w)[:, None]
