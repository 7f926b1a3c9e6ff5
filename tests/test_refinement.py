"""Refinement gate in 2-D: the disk, the rectangle and the cap.

Under the default coupling (t = 0.1 h^(4/7), beta = 0.5 sqrt(t)) every
error should fall at every level, and the H1 error should track beta,
which predicts an H1 order of 2/7 ~ 0.29 in h.  The rectangle and the cap
carry nonzero boundary data, so the folded Rbar_t weights of assembly reach
their errors.  The floors and bands below come from this sweep (levels
500-4000, seed 0) less a margin; CHANGES.md records the measured values.
"""

import math

import pytest

from pim.analysis import convergence_sweep, get_case

LEVELS = [500, 1000, 2000, 4000]

# case: floor on the H1 order in h, first level to last, and the band for
# H1/beta at every level.  Measured: orders 0.331, 0.212 and 0.355; H1/beta
# 3.426-3.588, 2.889-3.127 and 1.479-1.589.
BOUNDS = {
    "disk_paraboloid": (0.30, (3.30, 3.70)),
    "rectangle_quadratic": (0.18, (2.80, 3.25)),
    "cap_linear": (0.32, (1.40, 1.65)),
}


@pytest.mark.filterwarnings("ignore:stability guardrail")
@pytest.mark.parametrize("name", list(BOUNDS))
def test_2d_refinement_under_the_default_coupling(name):
    rows = convergence_sweep(get_case(name), LEVELS, seed=0).rows
    for norm in ("l2_error", "h1_error", "boundary_l2_error"):
        errs = [getattr(r, norm) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:])), (norm, errs)
    floor, (lo, hi) = BOUNDS[name]
    first, last = rows[0], rows[-1]
    order = math.log(first.h1_error / last.h1_error) / math.log(first.h / last.h)
    assert order >= floor, order
    ratios = [r.h1_error / r.beta for r in rows]
    assert all(lo <= x <= hi for x in ratios), ratios
