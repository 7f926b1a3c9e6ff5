"""Linear solvers with verified residuals.

The assembled matrix is nonsymmetric (the boundary-penalty columns break
symmetry), so the iterative path uses restarted GMRES with diagonal
preconditioning.  Small systems go through dense LU with partial pivoting.
Either way the reported residual is recomputed from scratch after the
solve — a solver claiming success is never taken at its word — and any
failure raises with diagnostics rather than returning silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


class SolverError(RuntimeError):
    """Base class for solver failures; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        self.diagnostics = diagnostics or {}
        if self.diagnostics:
            detail = ", ".join(f"{k}={v}" for k, v in self.diagnostics.items())
            message = f"{message} [{detail}]"
        super().__init__(message)


class SingularMatrix(SolverError):
    """Dense factorization hit a pivot below the relative threshold."""


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


def _solve_dense(system: LinearSystem, options: SolveOptions) -> tuple[np.ndarray, int, dict]:
    """LU with partial pivoting; raises :class:`SingularMatrix` on a tiny pivot."""
    a = system.matrix
    if sp.issparse(a):
        a = a.toarray()
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = float(pivots.max())
    pmin = float(pivots.min())
    if pmin <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            "dense factorization pivot below threshold",
            {"min_pivot": pmin, "max_pivot": scale, "threshold": PIVOT_RTOL * scale},
        )
    x = scipy.linalg.lu_solve((lu, piv), system.rhs, check_finite=False)
    return x, 0, {"min_pivot": pmin, "max_pivot": scale}


def _solve_iterative(system: LinearSystem,
                     options: SolveOptions) -> tuple[np.ndarray, int, dict]:
    """Restarted Jacobi-preconditioned GMRES; its claims are checked by ``solve``."""
    a = system.matrix
    n = system.n
    diag = a.diagonal() if sp.issparse(a) else np.diag(a).copy()
    safe = np.where(diag != 0.0, diag, 1.0)
    m = sp.diags(1.0 / safe)

    restart = min(options.restart, n)
    maxiter = max(1, math.ceil(options.max_iter_factor * n / restart))
    history: list[float] = []

    # scipy's gmres (1.17) with M ends its inner loop on the preconditioned
    # residual but checks the true residual b - Ax at every restart, so rtol =
    # tol alone would already return a verified iterate.  The 20x margin costs
    # iterations (67 against 62 on the solve-cap cloud); it stays because the
    # pinned acceptance fixtures depend on the iterate it yields.  A right-
    # preconditioned GMRES saved about 0.1 s per solve there but moved the
    # solution by about 1e-10 relative.
    inner_rtol = max(options.tol * 0.05, 1e-15)
    x, info = spla.gmres(
        a, system.rhs, M=m, rtol=inner_rtol, atol=0.0,
        restart=restart, maxiter=maxiter,
        callback=history.append, callback_type="pr_norm",
    )
    return x, len(history), {
        "claimed_residual": history[-1] if history else 0.0, "info": info,
        "restart": restart, "max_outer": maxiter,
    }


def solve(system: LinearSystem, options: Optional[SolveOptions] = None) -> SolveReport:
    """Solve the assembled system; the report's residual is recomputed.

    Method "auto" picks dense LU for dense-stored matrices and restarted
    GMRES (Jacobi-preconditioned) for sparse ones.  Raises
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
        method = "dense-lu" if system.is_dense else "iterative"
    run = _solve_dense if method == "dense-lu" else _solve_iterative
    x, iterations, diagnostics = run(system, options)
    res = _true_residual(system, x)
    # GMRES's info flags a spent iteration budget; a NaN residual fails too
    if diagnostics.get("info", 0) != 0 or not res <= options.tol:
        raise NoConvergence(
            f"{method} solve failed to reach tolerance",
            {**diagnostics, "residual": res, "tol": options.tol,
             "iterations": iterations},
        )
    # LU claims nothing of its own, so its claimed residual is the verified one
    return SolveReport(
        solution=x, method=method, iterations=iterations, residual_norm=res,
        diagnostics={"claimed_residual": res, **diagnostics},
    )
