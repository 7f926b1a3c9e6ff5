"""Manufactured solutions, error norms, and convergence studies.

Each manufactured case pairs a closed-form u with its negative intrinsic
Laplacian f and boundary trace b, so solving with (f, b) and comparing the
reconstruction against u measures the full discretization error.

The convergence sweep couples the kernel bandwidth and penalty weight to
the realized fill distance as t = c_t * h^gamma (gamma < 2/3, so the
consistency ratio h/t^(3/2) vanishes under refinement) and
beta = c_beta * sqrt(t), which lets all error contributions decay
together.  The error-floor study freezes t and beta while h shrinks, and
the Robin-gap study shrinks beta on one cloud.  All three run one level
loop and differ only in how level k gets its cloud size and its (t, beta,
guardrail flags).  Results are recorded as CSV rows; runs are
deterministic apart from the wall-time column.

The error norms and the norm-comparison record read the interpolant's
values and gradients from :meth:`Interpolant.on_cloud`, so any caller that
takes several of them on one reference cloud, in any order, pays for one
value-and-gradient pass; every sweep row holds all of them.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import DENSE_CUTOFF, assemble
from .interpolate import Interpolant
from .kernel import KernelParams, KernelProfile, cubic_profile
from .pointcloud import ManifoldSpec, PointCloud, fill_distance, generate
from .solve import SolveOptions, SolverError, solve

__all__ = [
    "ManufacturedCase",
    "builtin_cases",
    "get_case",
    "l2_error",
    "h1_error",
    "boundary_l2_error",
    "l2_norm",
    "lemma_norm_check",
    "Coupling",
    "Guardrails",
    "SweepRow",
    "SweepResult",
    "SweepAborted",
    "solve_case_on_cloud",
    "convergence_sweep",
    "robin_gap_study",
    "error_floor_study",
    "SWEEP_HEADER",
]


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution u with f = -Laplacian(u) and b = u on the boundary."""

    name: str
    spec: ManifoldSpec
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]   # ambient tangential gradient
    f: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    description: str = ""


_CASES = {case.name: case for case in (
    ManufacturedCase(
        name="interval_sine",
        spec=ManifoldSpec.interval(0.0, 1.0, 101),
        u=lambda X: np.sin(math.pi * X[:, 0]),
        grad_u=lambda X: math.pi * np.cos(math.pi * X[:, 0])[:, None],
        f=lambda X: math.pi * math.pi * np.sin(math.pi * X[:, 0]),
        b=lambda X: np.zeros(X.shape[0]),
        description="u = sin(pi x) on [0,1], homogeneous boundary",
    ),
    ManufacturedCase(
        name="disk_paraboloid",
        spec=ManifoldSpec.disk(500),
        u=lambda X: 1.0 - X[:, 0] ** 2 - X[:, 1] ** 2,
        grad_u=lambda X: -2.0 * X,
        f=lambda X: np.full(X.shape[0], 4.0),
        b=lambda X: np.zeros(X.shape[0]),
        description="u = 1 - x^2 - y^2 on the unit disk, homogeneous boundary",
    ),
    ManufacturedCase(
        name="rectangle_quadratic",
        spec=ManifoldSpec.rectangle(1.0, 1.0, 400),
        u=lambda X: X[:, 0] ** 2 + X[:, 1] ** 2,
        grad_u=lambda X: 2.0 * X,
        f=lambda X: np.full(X.shape[0], -4.0),
        b=lambda X: X[:, 0] ** 2 + X[:, 1] ** 2,
        description="u = x^2 + y^2 on the unit square, non-homogeneous boundary",
    ),
    ManufacturedCase(
        name="cap_linear",
        spec=ManifoldSpec.spherical_cap(0.5, 500),
        u=lambda X: X[:, 2].copy(),
        # tangential part of the constant ambient field e_z on the unit sphere
        grad_u=lambda X: (np.array([0.0, 0.0, 1.0])[None, :]
                          - X[:, 2][:, None] * X),
        f=lambda X: 2.0 * X[:, 2],
        b=lambda X: X[:, 2].copy(),
        description="u = z (degree-1 spherical harmonic) on the cap z >= z0",
    ),
)}


def builtin_cases() -> list[ManufacturedCase]:
    return list(_CASES.values())


def get_case(name: str) -> ManufacturedCase:
    if name not in _CASES:
        raise ValueError(f"unknown case {name!r}; available: {list(_CASES)}")
    return _CASES[name]


# ---------------------------------------------------------------------------
# error norms on a reference quadrature cloud
# ---------------------------------------------------------------------------

def _reference_errors(interp: Interpolant, case: ManufacturedCase,
                      reference_cloud: PointCloud, with_grad: bool) -> float:
    """Squared L2 error on the reference quadrature, plus, ``with_grad``, the gradient's."""
    vals, grads = interp.on_cloud(reference_cloud)
    q = reference_cloud.points
    w = reference_cloud.volume_weights
    diff = case.u(q) - vals
    l2_sq = float(np.sum(diff * diff * w))
    if not with_grad:
        return l2_sq
    gdiff = case.grad_u(q) - grads
    return l2_sq + float(np.sum(np.einsum("qd,qd->q", gdiff, gdiff) * w))


def l2_error(interp: Interpolant, case: ManufacturedCase,
             reference_cloud: PointCloud, relative: bool = False) -> float:
    """L2 error of the reconstruction on the reference cloud's quadrature.

    It takes the values from :meth:`Interpolant.on_cloud`, so it pays for a
    value-and-gradient pass (about 1.4 times a values-only pass), which the
    other norms on the same cloud then share.
    """
    err = math.sqrt(_reference_errors(interp, case, reference_cloud, False))
    if relative:
        norm = l2_norm(case, reference_cloud)
        return err / norm if norm > 0.0 else err
    return err


def l2_norm(case: ManufacturedCase, reference_cloud: PointCloud) -> float:
    q = reference_cloud.points
    vals = case.u(q)
    return math.sqrt(float(np.sum(vals * vals * reference_cloud.volume_weights)))


def h1_error(interp: Interpolant, case: ManufacturedCase,
             reference_cloud: PointCloud) -> float:
    return math.sqrt(_reference_errors(interp, case, reference_cloud, True))


def boundary_l2_error(interp: Interpolant, case: ManufacturedCase,
                      reference_cloud: PointCloud) -> float:
    """L2 mismatch of the reconstruction on the boundary sample set, read
    off the boundary rows of the reference cloud's pass."""
    vals = interp.on_cloud(reference_cloud)[0][reference_cloud.boundary_indices]
    diff = case.u(reference_cloud.boundary_points) - vals
    return math.sqrt(float(np.sum(diff * diff * reference_cloud.area_weights)))


def lemma_norm_check(interp: Interpolant, reference_cloud: PointCloud) -> dict:
    """Both sides of the discrete-vs-reconstruction norm comparison.

    lhs: (sum u_i^2 V_i)^(1/2) + t^(1/4) (sum u_l^2 A_l)^(1/2) over samples;
    rhs: H1 norm of the reconstruction plus sqrt(h) t^(3/4) max|f|.
    The ratio lhs/rhs should stay below a level-independent constant under
    refinement; the constant itself is empirical.
    """
    cl = interp.cloud
    t = interp.params.t
    u = interp.u
    u_s = u[cl.boundary_indices]
    lhs_vol = math.sqrt(float(np.sum(u * u * cl.volume_weights)))
    lhs_bnd = math.sqrt(float(np.sum(u_s * u_s * cl.area_weights)))
    lhs = lhs_vol + t ** 0.25 * lhs_bnd

    vals, grads = interp.on_cloud(reference_cloud)
    w = reference_cloud.volume_weights
    h1 = math.sqrt(float(np.sum(vals * vals * w))
                   + float(np.sum(np.einsum("qd,qd->q", grads, grads) * w)))
    h = cl.metadata.get("h") or fill_distance(cl)
    f_inf = float(np.max(np.abs(interp.f))) if interp.f.size else 0.0
    rhs = h1 + math.sqrt(h) * t ** 0.75 * f_inf
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio,
            "lhs_volume": lhs_vol, "lhs_boundary": lhs_bnd,
            "h1_norm": h1, "f_sup": f_inf, "h": h, "t": t}


# ---------------------------------------------------------------------------
# parameter coupling and guardrails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """t = c_t * h^gamma_t, beta = c_beta * sqrt(t)."""

    c_t: float = 0.1
    gamma_t: float = 4.0 / 7.0
    c_beta: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.c_t < math.inf and 0.0 < self.c_beta < math.inf):
            raise ValueError(f"coupling constants must be positive and finite, "
                             f"got c_t={self.c_t}, c_beta={self.c_beta}")
        if not 0.0 < self.gamma_t < 2.0 / 3.0:
            raise ValueError(
                f"gamma_t must lie in (0, 2/3) so h/t^(3/2) vanishes under "
                f"refinement; got {self.gamma_t}")

    def t_of(self, h: float) -> float:
        return self.c_t * h ** self.gamma_t

    def beta_of(self, t: float) -> float:
        return self.c_beta * math.sqrt(t)


@dataclass(frozen=True)
class Guardrails:
    """Config-overridable ceilings on the stability ratios (empirical defaults)."""

    r0_penalty: float = 2.0    # ceiling for sqrt(t)/beta
    r0_density: float = 20.0   # ceiling for h/t^(3/2)

    def __post_init__(self):
        # a NaN ceiling would turn the guardrail off: every comparison is false
        if not (0.0 < self.r0_penalty < math.inf and 0.0 < self.r0_density < math.inf):
            raise ValueError(f"guardrail ceilings must be positive and finite, got "
                             f"r0_penalty={self.r0_penalty}, r0_density={self.r0_density}")

    def check(self, t: float, beta: float, h: float) -> list[str]:
        flags = []
        ratio_tb = math.sqrt(t) / beta
        if ratio_tb > self.r0_penalty:
            flags.append(f"sqrt(t)/beta={ratio_tb:.3g}>{self.r0_penalty:.3g}")
        ratio_ht = h / t ** 1.5
        if ratio_ht > self.r0_density:
            flags.append(f"h/t^1.5={ratio_ht:.3g}>{self.r0_density:.3g}")
        for msg in flags:
            warnings.warn(f"stability guardrail exceeded: {msg}",
                          RuntimeWarning, stacklevel=2)
        return flags


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

REFERENCE_FACTOR = 4  # reference resolution over the level's; config-overridable


@dataclass
class SweepRow:
    """One level of a study.  The CSV columns are its fields in order,
    except ``flags`` and ``lemma``, each to 17 significant digits (so the
    int fields print as integers)."""

    level: int
    n: int
    h: float
    t: float
    beta: float
    l2_error: float
    h1_error: float
    boundary_l2_error: float
    residual: float
    wall_time_s: float
    flags: list[str] = field(default_factory=list)
    lemma: dict = field(default_factory=dict)    # lemma_norm_check on the reference

    def csv_cells(self) -> list[str]:
        return [format(float(getattr(self, f.name)), ".17g") for f in _CSV_FIELDS]


_CSV_FIELDS = [f for f in fields(SweepRow) if f.name not in ("flags", "lemma")]
SWEEP_HEADER = ",".join(f.name for f in _CSV_FIELDS)


@dataclass
class SweepResult:
    case_name: str
    rows: list[SweepRow]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def csv_text(self) -> str:
        lines = [SWEEP_HEADER]
        lines += [",".join(r.csv_cells()) for r in self.rows]
        return "\n".join(lines) + "\n"


class SweepAborted(RuntimeError):
    """Solver failure mid-sweep; completed rows are preserved in .partial."""

    def __init__(self, partial: SweepResult, cause: Exception):
        self.partial = partial
        self.cause = cause
        super().__init__(
            f"sweep aborted after {len(partial.rows)} level(s): {cause}")


def solve_case_on_cloud(case: ManufacturedCase, cloud: PointCloud, t: float,
                        beta: float, profile: Optional[KernelProfile] = None,
                        solver_options: Optional[SolveOptions] = None,
                        dense_cutoff: int = DENSE_CUTOFF):
    """Assemble + solve one manufactured case; returns (interp, report)."""
    profile = profile or cubic_profile
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    fvals = case.f(cloud.points)
    bvals = case.b(cloud.boundary_points)
    system = assemble(cloud, params, profile, beta, fvals, bvals,
                      dense_cutoff=dense_cutoff)
    report = solve(system, solver_options)
    interp = Interpolant(cloud=cloud, params=params, profile=profile,
                         beta=beta, u=report.solution, f=fvals, b=bvals)
    return interp, report


def _sweep(case: ManufacturedCase, sizes: Sequence[int],
           settings: Callable[[int, float], tuple[float, float, list[str]]],
           profile: Optional[KernelProfile], solver_options: Optional[SolveOptions],
           reference_factor: int, dense_cutoff: int, seed: int) -> SweepResult:
    """The studies' level loop: level k solves on a cloud of resolution
    ``sizes[k]`` with ``(t, beta, flags) = settings(k, h)``, h the cloud's
    fill distance, and measures its norms and lemma record on a cloud
    ``reference_factor`` times finer.  Both clouds are generated again only
    when the size changes.  Raises :class:`SweepAborted`, carrying the rows
    so far, on solver failure.
    """
    result = SweepResult(case_name=case.name, rows=[])
    size = None
    for level, n in enumerate(sizes):
        start = time.perf_counter()
        if n != size:
            size = n
            cloud = generate(case.spec.with_resolution(int(n)), seed=seed)
            ref = generate(case.spec.with_resolution(int(n) * reference_factor),
                           seed=seed)
        h = cloud.metadata["h"]
        t, beta, flags = settings(level, h)
        try:
            interp, report = solve_case_on_cloud(
                case, cloud, t, beta, profile, solver_options, dense_cutoff)
        except SolverError as exc:
            raise SweepAborted(result, exc) from exc
        result.rows.append(SweepRow(
            level=level, n=cloud.n, h=h, t=t, beta=beta,
            l2_error=l2_error(interp, case, ref),
            h1_error=h1_error(interp, case, ref),
            boundary_l2_error=boundary_l2_error(interp, case, ref),
            residual=report.residual_norm,
            wall_time_s=time.perf_counter() - start,
            flags=flags, lemma=lemma_norm_check(interp, ref)))
    return result


def convergence_sweep(case: ManufacturedCase, levels: Sequence[int],
                      coupling: Optional[Coupling] = None,
                      profile: Optional[KernelProfile] = None,
                      solver_options: Optional[SolveOptions] = None,
                      guardrails: Optional[Guardrails] = None,
                      reference_factor: int = REFERENCE_FACTOR,
                      dense_cutoff: int = DENSE_CUTOFF,
                      seed: int = 0) -> SweepResult:
    """Solve the case across resolutions with h-coupled t and beta.

    Raises :class:`SweepAborted` (partial rows attached) on solver failure.
    """
    coupling = coupling or Coupling()
    guardrails = guardrails or Guardrails()

    def settings(level, h):
        t = coupling.t_of(h)
        beta = coupling.beta_of(t)
        return t, beta, guardrails.check(t, beta, h)

    return _sweep(case, levels, settings, profile, solver_options,
                  reference_factor, dense_cutoff, seed)


def robin_gap_study(case: ManufacturedCase, t: float, n: int,
                    betas: Sequence[float],
                    profile: Optional[KernelProfile] = None,
                    solver_options: Optional[SolveOptions] = None,
                    guardrails: Optional[Guardrails] = None,
                    reference_factor: int = REFERENCE_FACTOR,
                    dense_cutoff: int = DENSE_CUTOFF,
                    seed: int = 0) -> SweepResult:
    """Fix t and the cloud, vary the penalty weight beta (decreasing).

    Shrinking beta tightens the boundary condition, so the boundary
    L2 mismatch should fall until the t/h floor takes over.
    """
    betas = list(betas)
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta sequence must be strictly decreasing")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    bad = [beta for beta in betas if not 0.0 < beta < math.inf]
    if bad:
        raise ValueError(f"every beta must be positive and finite, got {bad[0]}")
    guardrails = guardrails or Guardrails()

    def settings(level, h):
        return t, betas[level], guardrails.check(t, betas[level], h)

    return _sweep(case, [n] * len(betas), settings, profile, solver_options,
                  reference_factor, dense_cutoff, seed)


def error_floor_study(case: ManufacturedCase, t: float, beta: float,
                      levels: Sequence[int],
                      profile: Optional[KernelProfile] = None,
                      solver_options: Optional[SolveOptions] = None,
                      reference_factor: int = REFERENCE_FACTOR,
                      dense_cutoff: int = DENSE_CUTOFF,
                      seed: int = 0) -> SweepResult:
    """Refine h with t and beta frozen: the error should flatten, not vanish.

    The t- and beta-controlled contributions do not shrink with h, so once
    the h term is subdominant the L2 error stalls at a floor.  The study
    leaves the coupling rule on purpose, so no guardrail is checked.
    """
    return _sweep(case, levels, lambda level, h: (t, beta, []), profile,
                  solver_options, reference_factor, dense_cutoff, seed)
