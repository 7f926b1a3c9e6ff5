"""The kernel Laplacian as a solve assembles it, and quadrature oracles.

:func:`laplacian_matrix` returns the integral-kernel Laplacian
  L u(p_i) = (1/t) sum_j R_t(p_i, p_j) (u_i - u_j) V_j
as the CSR matrix :func:`pim.assembly.assemble` builds for a solve, on the
cloud without its boundary samples, so that the penalty is zero.  L
annihilates constants and has a nonnegative V-weighted quadratic form,
which :func:`energy_identity` compares with a dense double sum.

The oracles evaluate the integral Laplacian on a much finer cloud
(``oracle_Lt``) or form the kernel-smoothed average (``oracle_v``), to test
the assembled operator against an independent discretization.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import assembly
from .kernel import KernelParams, KernelProfile, eval_Rt
from .pointcloud import PointCloud

__all__ = ["laplacian_matrix", "oracle_Lt", "oracle_v", "energy_identity"]


def _as_field(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (n,):
        raise ValueError(f"field length {u.shape[0]} != cloud size {n}")
    return u


def laplacian_matrix(cloud: PointCloud, params: KernelParams,
                     profile: KernelProfile) -> sp.csr_matrix:
    """L as a solve assembles it: the matrix of the cloud with no boundary
    samples, which carries no penalty whatever beta, with f = 0 and b empty."""
    none = np.array([], dtype=int)
    interior = dataclasses.replace(cloud, boundary_indices=none, area_weights=none)
    return assembly.assemble(interior, params, profile, 1.0,
                             np.zeros(cloud.n), none).matrix


def oracle_Lt(u_fn: Callable[[np.ndarray], np.ndarray], x, fine_cloud: PointCloud,
              params: KernelParams, profile: KernelProfile) -> float:
    """Continuous integral Laplacian at x, quadratured on a fine cloud.

    L u(x) = (1/t) int R_t(x, y) (u(x) - u(y)) dmu_y.  ``u_fn`` maps an
    (m, d) array of points to m values.  The fine cloud should be much
    denser (8x by default elsewhere) than whatever is being tested.
    """
    x = np.asarray(x, dtype=float).ravel()
    rt = eval_Rt(x, fine_cloud.points, params, profile)
    ux = float(u_fn(x[None, :])[0])
    uy = np.asarray(u_fn(fine_cloud.points), dtype=float)
    return float(np.sum(rt * (ux - uy) * fine_cloud.volume_weights) / params.t)


def oracle_v(u_values, x, cloud: PointCloud, params: KernelParams,
             profile: KernelProfile) -> float:
    """Kernel-smoothed average of sampled values at x.

    v(x) = sum_j R_t(x, p_j) u_j V_j / sum_j R_t(x, p_j) V_j.  A convex
    combination of the u_j, so min(u) <= v(x) <= max(u).
    """
    u_values = _as_field(u_values, cloud.n)
    x = np.asarray(x, dtype=float).ravel()
    rt = eval_Rt(x, cloud.points, params, profile)
    w = float(np.sum(rt * cloud.volume_weights))
    if w <= 0.0:
        raise ValueError("x is outside the kernel support of every sample")
    return float(np.sum(rt * u_values * cloud.volume_weights) / w)


def energy_identity(cloud: PointCloud, params: KernelParams,
                    profile: KernelProfile, u) -> tuple[float, float]:
    """Both sides of the weighted quadratic-form identity.

    Returns (lhs, rhs) with
      lhs = sum_i V_i u_i (L u)(p_i),   L from :func:`laplacian_matrix`,
      rhs = (1/2t) sum_{i,j} R_t(p_i, p_j) (u_i - u_j)^2 V_i V_j,
    the rhs by a dense double sum of ``eval_Rt``.  Mathematically lhs ==
    rhs >= 0: expand the rhs square and use the symmetry R_t(p_i,p_j) =
    R_t(p_j,p_i).
    """
    u = _as_field(u, cloud.n)
    lhs = float(np.sum(cloud.volume_weights * u * (laplacian_matrix(cloud, params, profile) @ u)))
    rt = eval_Rt(cloud.points[:, None, :], cloud.points[None, :, :],
                 params, profile)
    du2 = (u[:, None] - u[None, :]) ** 2
    vv = cloud.volume_weights[:, None] * cloud.volume_weights[None, :]
    rhs = float(np.sum(rt * du2 * vv) / (2.0 * params.t))
    return lhs, rhs
