"""Meshless Poisson solver on point-cloud-sampled manifolds.

The discretization replaces the Laplace–Beltrami operator with an
integral kernel of bandwidth t evaluated by cloud quadrature, and enforces
Dirichlet data through a boundary penalty of weight 2/beta.  Solving the
resulting linear system gives sample values; a closed-form kernel
reconstruction extends them to a smooth function whose error norms the
analysis tools track across refinement levels.
"""

from .kernel import (KernelParams, KernelProfile, PROFILE_NAMES, cubic_profile,
                     get_profile, truncated_gaussian_profile)
from .pointcloud import (CloudFormatError, ManifoldSpec, PointCloud,
                         fill_distance, generate, load, save)
from .neighbors import NeighborIndex
from .assembly import LinearSystem, assemble
from .solve import (NoConvergence, SingularMatrix, SolveOptions, SolveReport,
                    SolverError, solve)
from .interpolate import Interpolant, OutOfSupport
from .analysis import (Coupling, ManufacturedCase, SweepAborted, SweepResult,
                       builtin_cases, convergence_sweep, get_case, robin_gap_study)

__version__ = "0.1.0"

__all__ = [
    "KernelParams", "KernelProfile", "PROFILE_NAMES", "cubic_profile",
    "get_profile", "truncated_gaussian_profile",
    "CloudFormatError", "ManifoldSpec", "PointCloud", "fill_distance",
    "generate", "load", "save",
    "NeighborIndex",
    "LinearSystem", "assemble",
    "NoConvergence", "SingularMatrix", "SolveOptions", "SolveReport",
    "SolverError", "solve",
    "Interpolant", "OutOfSupport",
    "Coupling", "ManufacturedCase", "SweepAborted", "SweepResult",
    "builtin_cases", "convergence_sweep", "get_case", "robin_gap_study",
    "__version__",
]
