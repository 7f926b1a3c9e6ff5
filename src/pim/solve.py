"""Linear solvers with verified residuals.

The assembled matrix is nonsymmetric (the boundary-penalty columns break
symmetry), so the iterative path uses restarted GMRES: our own loop, with
scipy 1.17's ``gmres`` arithmetic without its per-step bookkeeping.  Under
diagonal (Jacobi) preconditioning its iterations grow with n, 53 at 2k
points and 79 at 32k, so from ``TWO_LEVEL_MIN_N`` rows on, systems that
carry their points take a two-level preconditioner instead: a coarse
correction on aggregates of nearby points, then one Jacobi step (two-level
unsmoothed aggregation, after Vanek, Mandel & Brezina, Computing 56, 1996).
The aggregates are cells of ``CELL_FACTOR`` times the support radius, widened
where a dense LU of that many would cost more than ``COARSE_LU_MATVECS`` matvecs
with A, as a small t or a cloud in large units would otherwise make thousands of
them; with P their 0/1 matrix, P^T A P and P^T y are scipy products.  At the
default t GMRES then takes 10 to 14 iterations on caps and disks of 4k to 32k.
Below ``TWO_LEVEL_MIN_N`` rows GMRES keeps Jacobi, bit for bit scipy's
iterate.  Systems flagged for the direct solver go through LU with partial
pivoting of the matrix's band, scattered straight from the CSR arrays.
Either way the reported residual is recomputed from scratch after the
solve — a solver claiming success is never taken at its word — and any failure
raises with diagnostics rather than returning silently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs, dlartg

from .assembly import LinearSystem

__all__ = [
    "SolveOptions",
    "SolveReport",
    "SolverError",
    "SingularMatrix",
    "NoConvergence",
    "solve",
]

PIVOT_RTOL = 1e-14  # relative pivot threshold for singularity detection
TWO_LEVEL_MIN_N = 4096  # GMRES systems from this size on, with points, take the two-level
# narrowest aggregate cell side over the support radius; at cap 32k, 0.25 saved
# one iteration but doubled the set-up, and 1.0 took 23 iterations against 10.
# Cells this narrow are widened while their count passes the cost cap below.
CELL_FACTOR = 0.35
# The coarse LU may cost what this many matvecs with A do: its (2/3) n_c**3
# flops against 2 nnz(A) each cap n_c at (3 K nnz(A))**(1/3)
COARSE_LU_MATVECS = 20


class SolverError(RuntimeError):
    """Base class for solver failures; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        self.diagnostics = diagnostics or {}
        if self.diagnostics:
            detail = ", ".join(f"{k}={v}" for k, v in self.diagnostics.items())
            message = f"{message} [{detail}]"
        super().__init__(message)


class SingularMatrix(SolverError):
    """The LU factorization hit a pivot below the relative threshold."""


class NoConvergence(SolverError):
    """Iteration cap reached or the verified residual misses tolerance."""


@dataclass(frozen=True)
class SolveOptions:
    method: str = "auto"          # auto | dense-lu | iterative
    tol: float = 1e-10            # on the true relative residual
    max_iter_factor: int = 10     # inner-iteration cap = factor * n
    restart: int = 100

    def __post_init__(self):
        if self.method not in ("auto", "dense-lu", "iterative"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter_factor < 1:
            raise ValueError("max_iter_factor must be >= 1")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")


@dataclass
class SolveReport:
    solution: np.ndarray
    method: str
    iterations: int
    residual_norm: float          # independently recomputed, see solve()
    diagnostics: dict = field(default_factory=dict)


def _true_residual(system: LinearSystem, x: np.ndarray) -> float:
    r = system.matrix @ x - system.rhs
    denom = max(float(np.linalg.norm(system.rhs)), np.finfo(float).tiny)
    return float(np.linalg.norm(r) / denom)


def _band_storage(a, d: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """CSR ``a``, whose stored entries lie ``d = j - i`` off the diagonal, in LAPACK band
    storage for ``dgbtrf``: ``a[i, j]`` at ``[kl + ku + i - j, j]``, under ``kl`` zero rows
    that hold the fill-in of the row interchanges.  One flat scatter fills a C-order
    ``(n, ldab)`` array; its transpose is the F-order band."""
    ldab = 2 * kl + ku + 1
    ab = np.zeros((a.shape[0], ldab))
    ab.ravel()[a.indices * ldab + (kl + ku) - d] = a.data
    return ab.T


def _solve_dense(system: LinearSystem, options: SolveOptions) -> tuple[np.ndarray, int, dict]:
    """Band LU with partial pivoting; raises :class:`SingularMatrix` on a tiny pivot.

    One factorization serves every direct solve.  The band comes from the CSR
    arrays in one scatter, where a full LU first pays for a dense copy; measured,
    the band is as fast or faster on every built-in cloud up to the default
    cutoff.  Its cost follows the point order: a cloud in random order has a
    band as wide as the matrix, stored as up to ``3 n**2`` values.
    """
    a = system.matrix
    if not a.has_canonical_format:      # the scatter keeps one of repeated entries
        a = a.copy()                    # assembled matrices are canonical: no copy
        a.sum_duplicates()
    d = a.indices - np.repeat(np.arange(system.n, dtype=a.indices.dtype), np.diff(a.indptr))
    kl, ku = -int(d.min(initial=0)), int(d.max(initial=0))     # 0 for an empty matrix
    lu, piv, _ = dgbtrf(_band_storage(a, d, kl, ku), kl, ku, overwrite_ab=True)
    diagnostics = _checked_pivots("LU", np.abs(lu[kl + ku]), bandwidth=(kl, ku))
    x, _ = dgbtrs(lu, kl, ku, system.rhs, piv)
    return x, 0, diagnostics


def _checked_pivots(name: str, pivots: np.ndarray, **extra) -> dict:
    """``{min_pivot, max_pivot, **extra}``; raises :class:`SingularMatrix` if
    the smallest pivot is at most ``PIVOT_RTOL`` times the largest."""
    scale, pmin = float(pivots.max()), float(pivots.min())
    diagnostics = {"min_pivot": pmin, "max_pivot": scale, **extra}
    if pmin <= PIVOT_RTOL * scale:
        raise SingularMatrix(f"{name} pivot below threshold",
                             {**diagnostics, "threshold": PIVOT_RTOL * scale})
    return diagnostics


def _gmres(a, b: np.ndarray, prec, rtol: float, restart: int,
           maxiter: int, history: list, stall_rtol: float) -> tuple[np.ndarray, int, dict]:
    """Restarted GMRES from x = 0, left-preconditioned by ``prec(y, out)``,
    which writes M y into ``out`` and returns it.

    Step for step the arithmetic of scipy 1.17's ``gmres(a, b, M=M, rtol=rtol,
    atol=0, restart=restart, maxiter=maxiter, callback_type="pr_norm")``,
    with the Givens updates on Python floats; for ``M = diags(dinv)`` and
    ``prec = np.multiply(dinv, y, out=out)`` bit for bit.  Appends each
    preconditioned residual ratio to ``history``; returns ``(x, info, {"breakdown": whether
    Arnoldi broke down, "restart_residual": the last restart's true residual ratio})``.
    It also succeeds at a restart whose true residual ratio is at most
    ``stall_rtol`` and no smaller than the previous restart's, for systems
    that cannot reach ``rtol``; ``stall_rtol = 0`` turns that off.
    """
    # scipy's diagonal product turns a -0.0 of dinv * y into 0.0; that sign
    # reaches no sum, norm or iterate, which all start from 0.0
    n = b.shape[0]
    x, buf = np.zeros(n), np.empty(n)
    bnrm2 = np.linalg.norm(b)
    atol = max(0.0, rtol * float(bnrm2))
    if bnrm2 == 0 or bnrm2 < atol:      # scipy returns b itself when it is 0
        return (b.copy() if bnrm2 == 0 else x), 0, {"breakdown": False, "restart_residual": 0.0}
    eps = np.finfo(float).eps
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(prec(b, buf)) * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))    # row j holds column j of the Hessenberg matrix
    r, last = b, np.inf
    for _ in range(maxiter):
        prec(r, v[0])
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        s_vec = [float(tmp)] + [0.0] * restart
        givens = []
        breakdown = False
        for col in range(restart):
            w = prec(a.dot(v[col]), v[col + 1])
            h0 = np.linalg.norm(w)
            hcol = []       # modified Gram-Schmidt
            for vk in v[:col + 1]:
                hcol.append(np.dot(vk, w))
                w -= np.multiply(vk, hcol[-1], out=buf)
            h1 = np.linalg.norm(w)
            hcol = [float(hk) for hk in hcol] + [float(h1)]
            if h1 <= eps * h0:
                hcol[col + 1] = 0.0
                breakdown = True
            else:
                w *= 1 / h1
            for k, (c, s) in enumerate(givens):
                n0, n1 = hcol[k], hcol[k + 1]
                hcol[k], hcol[k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = dlartg(hcol[col], hcol[col + 1])
            givens.append((c, s))
            hcol[col], hcol[col + 1] = mag, 0.0
            h[col, :col + 2] = hcol
            tmp = -s * s_vec[col]
            s_vec[col], s_vec[col + 1] = c * s_vec[col], tmp
            presid = abs(tmp)
            history.append(presid / bnrm2)
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0:
            s_vec[col] = 0.0
        y = np.array(s_vec[:col + 1])
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - a.dot(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if last <= rnorm <= stall_rtol * bnrm2:
            return x, 0, {"breakdown": False, "restart_residual": rnorm / bnrm2}
        last = rnorm
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter, {"breakdown": breakdown, "restart_residual": rnorm / bnrm2}


def _aggregates(points: np.ndarray, width: float, cap: int) -> tuple[np.ndarray, int]:
    """``(agg, n_c)``: the points' cells of side ``width``, from the corner of
    their bounding box, numbered ``0 .. n_c - 1`` in ``agg`` and widened until
    at most ``cap`` of them hold points.

    A round multiplies the side by ``1.05 (n_c / cap)**(1/d)``, d the number of
    coordinates: the factor that fits cells filling all d dimensions, and 5%
    more, so that on a manifold of lower dimension, where the count falls more
    slowly, it still falls by a share each round.  A side past the box's
    longest edge leaves one cell, so the rounds are bounded.
    """
    offsets = points - points.min(axis=0)
    while True:
        cells = np.floor(offsets / width).astype(np.int64)
        # the cells' C-order key, axis by axis; ranked down to its distinct values
        # only where the next multiply would pass int64, as in many coordinates
        key = cells[:, 0]
        for c, size in zip(cells.T[1:], cells.max(axis=0)[1:] + 1):
            if (int(key.max()) + 1) * int(size) - 1 > np.iinfo(np.int64).max:
                key = np.unique(key, return_inverse=True)[1]
            key = key * size + c
        cell_keys, agg = np.unique(key, return_inverse=True)
        nc = cell_keys.shape[0]
        if nc <= cap:
            return agg, nc
        width *= 1.05 * (nc / cap) ** (1.0 / points.shape[1])


def _two_level(a, dinv: np.ndarray, points: np.ndarray, radius: float):
    """Two-level unsmoothed-aggregation preconditioner ``prec(y, out)``.

    The aggregates are the points' cells of side ``CELL_FACTOR * radius``,
    widened while there are more than ``(3 K nnz(A))**(1/3)`` of them, K =
    ``COARSE_LU_MATVECS``; P is their n x n_c 0/1 matrix.  The scipy products
    ``AP = A P`` and ``A_c = P^T AP``, P^T in CSR, give a dense F-ordered A_c
    that the LU factors in place.  One application is the coarse correction
    ``c = A_c^-1 P^T y``, then one Jacobi step on what it leaves, ``z = P c +
    D^-1 (y - AP c)`` with ``P c`` the gather ``c[agg]``: no matvec with A.
    Returns ``(prec, n_c)``; raises :class:`SingularMatrix` on a coarse LU pivot
    below the direct solver's threshold, as on a component with no boundary sample.
    """
    n = points.shape[0]
    cap = int((3 * COARSE_LU_MATVECS * a.nnz) ** (1.0 / 3.0))
    agg, nc = _aggregates(points, CELL_FACTOR * radius, cap)
    p = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, nc))
    pt = p.T.tocsr()
    ap = a @ p      # new arrays: summing an AP built on A's arrays would re-sort A in place
    coarse = lu_factor((pt @ ap).toarray(order="F"), overwrite_a=True, check_finite=False)
    _checked_pivots("coarse LU", np.abs(coarse[0].diagonal()), coarse_size=nc)

    def prec(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        c = lu_solve(coarse, pt @ y, check_finite=False)
        np.subtract(y, ap @ c, out=out)
        out *= dinv
        out += c[agg]
        return out
    return prec, nc


def _solve_iterative(system: LinearSystem,
                     options: SolveOptions) -> tuple[np.ndarray, int, dict]:
    """Restarted preconditioned GMRES; its claims are checked by ``solve``.

    Systems of at least ``TWO_LEVEL_MIN_N`` rows that carry their points
    (``meta["points"]``, as ``assemble`` sets it) take the two-level
    preconditioner, all others Jacobi; both read the system's ``diagonal``.
    """
    a = system.matrix
    n = system.n
    diag = system.diagonal
    restart = min(options.restart, n)
    maxiter = max(1, math.ceil(options.max_iter_factor * n / restart))
    history: list[float] = []
    dinv = 1.0 / np.where(diag != 0.0, diag, 1.0)
    points = system.meta.get("points")

    # GMRES ends its inner loop on the preconditioned residual but checks the
    # true one at every restart, so rtol = tol would return a verified iterate.
    # The margins below tol keep the pinned acceptance errors within 1e-12:
    # under Jacobi, rtol = tol (62 against 67 iterations on the solve-cap
    # cloud) moved the pinned 2 000-point cap error by 2.8e-11 relative; the
    # two-level iterate moves the pinned 8 000-point cap error by 5.0e-12 at
    # 0.05 * tol and by 1.4e-14 at 0.005 * tol.  The cutoff is no crossover
    # (the two-level was faster at every size measured, 2k to 32k): it keeps
    # every system up to 2 044 points on scipy's Jacobi iterate, which the
    # bit-for-bit test and the 2 000-point pins depend on; even a near-exact
    # solve sits 7.7e-13 from the 2 000-point cap pin.  Right preconditioning
    # saved 0.1 s under Jacobi but moved the solution by 1e-10 relative.
    if n >= TWO_LEVEL_MIN_N and points is not None:
        start = time.perf_counter()
        prec, coarse_size = _two_level(a, dinv, points, system.meta["support_radius"])
        setup_s = time.perf_counter() - start
        name, margin, stall_rtol = "two-level", 0.005, options.tol
    else:
        def prec(y: np.ndarray, out: np.ndarray) -> np.ndarray:
            return np.multiply(dinv, y, out=out)
        name, margin, stall_rtol, coarse_size, setup_s = "jacobi", 0.05, 0.0, 0, 0.0
    inner_rtol = max(options.tol * margin, 1e-15)
    x, info, ended = _gmres(a, system.rhs, prec, inner_rtol, restart, maxiter, history, stall_rtol)
    return x, len(history), {
        "preconditioned_residual": history[-1] if history else 0.0, "info": info, **ended,
        "restart": restart, "max_outer": maxiter, "preconditioner": name,
        "coarse_size": coarse_size, "coarse_setup_s": setup_s,
    }


def solve(system: LinearSystem, options: Optional[SolveOptions] = None) -> SolveReport:
    """Solve the assembled system; the report's residual is recomputed.

    Method "auto" picks dense LU for systems ``assemble`` flagged ``meta["dense"]``
    (n <= ``dense_cutoff``) and restarted GMRES otherwise, Jacobi- or, from
    ``TWO_LEVEL_MIN_N`` rows on, two-level-preconditioned.  Raises
    :class:`SingularMatrix` or :class:`NoConvergence` on failure, and
    ``ValueError``, before any work, for a system assembled from a cloud
    with no boundary points.
    """
    if system.meta.get("boundary_points") == 0:
        raise ValueError(
            "the cloud has no boundary points: without the boundary penalty the "
            "matrix annihilates constants and is singular")
    options = options or SolveOptions()
    method = options.method
    if method == "auto":
        method = "dense-lu" if system.meta.get("dense") else "iterative"
    run = _solve_dense if method == "dense-lu" else _solve_iterative
    x, iterations, diagnostics = run(system, options)
    res = _true_residual(system, x)
    # GMRES's info flags a spent budget or a breakdown short of it; a NaN residual fails too
    if diagnostics.get("info", 0) != 0 or not res <= options.tol:
        failed = "broke down before reaching" if diagnostics.get("breakdown") else "failed to reach"
        raise NoConvergence(f"{method} solve {failed} tolerance",
                            {**diagnostics, "residual": res, "tol": options.tol,
                             "iterations": iterations})
    return SolveReport(solution=x, method=method, iterations=iterations,
                       residual_norm=res, diagnostics=diagnostics)
