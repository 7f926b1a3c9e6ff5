"""Compactly supported radial kernels and their tail integrals.

The discretization is driven by a kernel pair (R, Rbar) where Rbar is the
tail integral of R:

    Rbar(r) = integral of R(s) for s in [r, inf),   so   Rbar' = -R.

Both profiles live on the normalized argument r = |x - y|^2 / (4 t), are C^2
on [0, inf), nonnegative, and vanish identically for r >= 1.  The scaled
kernels

    R_t(x, y)    = C_t * R(|x - y|^2 / 4t)
    Rbar_t(x, y) = C_t * Rbar(|x - y|^2 / 4t)

with C_t = (4 pi t)^(-k/2) (k the intrinsic manifold dimension) therefore
have support radius exactly 2*sqrt(t) in the ambient space.

Each profile is one function ``terms(r)`` that gives R, Rbar and R' as
closed forms in one w = max(1 - r, 0) (and, for the truncated Gaussian, one
exp(-r)), so assembly and reconstruction evaluate a block's kernels in one
call.  w vanishes beyond the support, so callers that have already cut their
pairs to the support pay for no mask.  Only the truncated-Gaussian tail
integral needs an explicit zero there; R' may be -0.0 beyond the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "KernelProfile",
    "KernelParams",
    "cubic_profile",
    "truncated_gaussian_profile",
    "get_profile",
    "PROFILE_NAMES",
    "eval_Rt",
    "eval_Rbar_t",
]


@dataclass(frozen=True)
class KernelProfile:
    """A radial profile, given as the one function ``terms``.

    ``terms(r)`` returns ``(R, Rbar, R')`` at scalar or ndarray arguments
    r >= 0, all three from one w = max(1 - r, 0), as new arrays that callers
    may scale in place; they must be exact zeros for r >= 1 (compact support).
    R must be positive on [0, 1/2], the paper's lower-bound assumption.
    """

    name: str
    terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _cubic_terms(r):
    w = np.maximum(1.0 - r, 0.0)
    return w * w * w, 0.25 * w * w * w * w, -3.0 * w * w


#: Default profile R(r) = (1 - r)^3 on [0, 1].  C^2 across r = 1 (value and
#: first two derivatives vanish there), nonnegative, R(1/2) = 1/8 > 0, and
#: the tail integral is the closed form (1 - r)^4 / 4.
cubic_profile = KernelProfile(name="cubic", terms=_cubic_terms)


def _tgauss_terms(r):
    # Rbar: integral of exp(-s)(1-s)^3 over [r, 1]; antiderivative found by parts.
    # At w = 0 the closed form leaves 6/e - 6 exp(-r), so zero it explicitly.
    w = np.maximum(1.0 - r, 0.0)
    e = np.exp(-r)
    rbar = np.where(r < 1.0, 6.0 * math.exp(-1.0) + e * (
        w * w * w - 3.0 * w * w + 6.0 * w - 6.0), 0.0)
    return e * w * w * w, rbar, -e * w * w * (w + 3.0)


#: Gaussian decay in the normalized argument, mollified to C^2 compact
#: support by the cubic bump.  Used for robustness checks against kernel
#: choice; same support and smoothness class as the default.
truncated_gaussian_profile = KernelProfile(name="truncated_gaussian", terms=_tgauss_terms)

_PROFILES = {
    "cubic": cubic_profile,
    "truncated_gaussian": truncated_gaussian_profile,
}

PROFILE_NAMES = tuple(sorted(_PROFILES))


def get_profile(name: str) -> KernelProfile:
    """Look up a built-in profile by config name."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel profile {name!r}; choose from {PROFILE_NAMES}"
        ) from None


@dataclass(frozen=True)
class KernelParams:
    """Bandwidth t (units length^2) and intrinsic dimension k.

    The normalizer C_t = (4 pi t)^(-k/2), which must be finite and positive,
    is derived in __post_init__ and the support radius 2*sqrt(t) is cached
    alongside.
    """

    t: float
    k: int
    C_t: float = field(init=False)
    support_radius: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.t < math.inf:
            raise ValueError(f"bandwidth t must be positive and finite, got {self.t}")
        if self.k < 1:
            raise ValueError(f"intrinsic dimension k must be >= 1, got {self.k}")
        try:
            c_t = (4.0 * math.pi * self.t) ** (-self.k / 2.0)
        except OverflowError:
            c_t = math.inf
        if not 0.0 < c_t < math.inf:
            raise ValueError(f"normalizer C_t = (4 pi t)^(-k/2) is not finite and positive "
                             f"for t = {self.t}, k = {self.k}")
        object.__setattr__(self, "C_t", c_t)
        object.__setattr__(self, "support_radius", 2.0 * math.sqrt(self.t))


def _arg(x, y, t):
    """The normalized argument s = |x - y|^2 / 4t."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.sum(diff * diff, axis=-1) / (4.0 * t)


def eval_Rt(x, y, params: KernelParams, profile: KernelProfile = cubic_profile):
    """C_t * R(|x - y|^2 / 4t).  Exactly zero beyond the support radius.

    ``x`` and ``y`` may be single points or broadcastable arrays of points
    with the coordinate axis last.
    """
    return params.C_t * profile.terms(_arg(x, y, params.t))[0]


def eval_Rbar_t(x, y, params: KernelParams, profile: KernelProfile = cubic_profile):
    """C_t * Rbar(|x - y|^2 / 4t).  Exactly zero beyond the support radius."""
    return params.C_t * profile.terms(_arg(x, y, params.t))[1]
