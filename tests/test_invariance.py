"""The solution does not depend on how a cloud is listed, placed, oriented or measured.

A row permutation of the cloud, its weights and its data, a rotation or a
translation of the cloud with the data moved along, or a change of the unit
of length, poses the same problem, so ``analysis.solve_on_cloud`` must
return the same solution up to rounding.  The change of unit is covariant
scaling: x by s, the volume weights by s^k and the area weights by s^(k-1),
t by s^2, beta by s and f by 1/s^2 (the same function in the new unit),
which scales the assembled matrix and right-hand side by 1/s^2 and leaves
the solution alone.  Only the order of the pairwise sums and the rounding
of the moved coordinates change.

Measured maxima relative to max |u|, on the jittered clouds below (disk
2 044, cap 2 004, rectangle 2 025, interval 2 001; Jacobi-preconditioned
GMRES), each over at least 10 draws:

- permutation and rotation, disk and cap, 20 draws each: 2.8e-15; ``RTOL``
  is about 36 times that;
- scaling, s = 0.1, 3, 10 and 10 log-uniform draws in [0.1, 10]: solution
  1.8e-14 (interval), matrix 1.4e-15 and right-hand side 2.5e-15;
  ``MOVE_RTOL`` is 57 times the first and ``SYSTEM_RTOL`` 40 times the last;
- translation of the flat clouds by 0.5, 7, -123 and 10 uniform draws in
  [-200, 200]: 5.4e-14, which ``MOVE_RTOL`` covers 18 times;
- the two-level cap 8 188, 10 draws each: scaling 2.4e-15, under
  ``MOVE_RTOL``; rotation 7.4e-13, because its aggregation cells follow
  the axes, so a rotated cloud takes other iterates.  Each solve stops
  once its relative residual is below the solver's tol, so that bound is
  tol itself, not a multiple of rounding.
"""

import numpy as np
import pytest

from pim.analysis import Coupling, solve_on_cloud
from pim.assembly import assemble
from pim.kernel import KernelParams, cubic_profile
from pim.pointcloud import ManifoldSpec, PointCloud, generate
from pim.solve import SolveOptions, solve as solve_system

RTOL = 1e-13
MOVE_RTOL = 1e-12
SYSTEM_RTOL = 1e-13
TWO_LEVEL_ROTATION_RTOL = SolveOptions().tol


def source(x):
    return np.cos(2.0 * x[:, 0]) + x[:, 1 % x.shape[1]]     # x[:, 0] on the interval


def boundary_data(x):
    return np.sin(3.0 * x[:, 1 % x.shape[1]]) + x[:, 0]


def solve(cloud, f, b):
    t = Coupling().t_of(cloud.metadata["h"])
    report = solve_on_cloud(cloud, f, b, t, Coupling().beta_of(t))
    assert report.diagnostics["preconditioner"] == "jacobi"
    return report.solution


@pytest.fixture(scope="module", params=[ManifoldSpec.disk(2000),
                                        ManifoldSpec.spherical_cap(0.5, 2000)],
                ids=["disk", "cap"])
def solved(request):
    cloud = generate(request.param, seed=0, jitter=0.25)
    assert cloud.n in (2044, 2004)
    return cloud, solve(cloud, source(cloud.points), boundary_data(cloud.boundary_points))


def relative_move(u, v):
    return float(np.max(np.abs(u - v)) / np.max(np.abs(u)))


def rotation(seed, d):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_permutation_permutes_the_solution(solved, seed):
    cloud, u = solved
    perm = np.random.default_rng(seed).permutation(cloud.n)
    new_index = np.argsort(perm)        # old row i is new row new_index[i]
    shuffled = PointCloud(cloud.points[perm], cloud.intrinsic_dim,
                          new_index[cloud.boundary_indices], cloud.volume_weights[perm],
                          cloud.area_weights, dict(cloud.metadata))
    v = solve(shuffled, source(cloud.points)[perm], boundary_data(cloud.boundary_points))
    assert relative_move(u, v[new_index]) <= RTOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_leaves_the_solution(solved, seed):
    cloud, u = solved
    q = rotation(seed, cloud.ambient_dim)
    rotated = PointCloud(cloud.points @ q.T, cloud.intrinsic_dim, cloud.boundary_indices,
                         cloud.volume_weights, cloud.area_weights, dict(cloud.metadata))
    # the data rotate with the cloud: evaluated at the rotated points, mapped back
    v = solve(rotated, source(rotated.points @ q), boundary_data(rotated.boundary_points @ q))
    assert relative_move(u, v) <= RTOL


def moved(cloud, s=1.0, shift=0.0):
    """The cloud in a unit s times smaller, then shifted: weights scale with it."""
    k = cloud.intrinsic_dim
    return PointCloud(cloud.points * s + shift, k, cloud.boundary_indices,
                      cloud.volume_weights * s ** k, cloud.area_weights * s ** (k - 1),
                      dict(cloud.metadata))


class Problem:
    """A cloud with the default coupling's t and beta, its data, system and solution."""

    def __init__(self, cloud):
        self.cloud = cloud
        self.t = Coupling().t_of(cloud.metadata["h"])
        self.beta = Coupling().beta_of(self.t)
        self.f, self.b = source(cloud.points), boundary_data(cloud.boundary_points)
        self.system, self.report = self.solve(cloud, self.f, self.b, self.t, self.beta)

    @staticmethod
    def solve(cloud, f, b, t, beta):
        system = assemble(cloud, KernelParams(t=t, k=cloud.intrinsic_dim), cubic_profile,
                          beta, f, b)
        return system, solve_system(system)

    def scaled(self, s):
        return self.solve(moved(self.cloud, s), self.f / s ** 2, self.b,
                          self.t * s * s, self.beta * s)


SHAPES = {"disk": ManifoldSpec.disk(2000), "cap": ManifoldSpec.spherical_cap(0.5, 2000),
          "rectangle": ManifoldSpec.rectangle(1.0, 1.0, 2000),
          "interval": ManifoldSpec.interval(0.0, 1.0, 2001)}


@pytest.fixture(scope="module", params=list(SHAPES))
def problem(request):
    problem = Problem(generate(SHAPES[request.param], seed=0, jitter=0.25))
    assert problem.cloud.n == {"disk": 2044, "cap": 2004, "rectangle": 2025,
                               "interval": 2001}[request.param]
    assert problem.report.diagnostics["preconditioner"] == "jacobi"
    return problem


@pytest.mark.parametrize("s", [0.1, 3.0, 10.0])
def test_covariant_scaling_keeps_the_solution(problem, s):
    system, report = problem.scaled(s)
    base = problem.system
    # the whole system scales as 1/s^2: a wrong power of t in C_t breaks this
    matrix_move = abs(system.matrix * s ** 2 - base.matrix).max() / abs(base.matrix).max()
    assert matrix_move <= SYSTEM_RTOL
    assert relative_move(base.rhs, system.rhs * s ** 2) <= SYSTEM_RTOL
    assert relative_move(problem.report.solution, report.solution) <= MOVE_RTOL


@pytest.mark.parametrize("problem", ["disk", "rectangle", "interval"], indirect=True)
@pytest.mark.parametrize("shift", [0.5, 7.0, -123.0])
def test_translating_a_flat_cloud_keeps_the_solution(problem, shift):
    _, report = problem.solve(moved(problem.cloud, shift=shift), problem.f, problem.b,
                              problem.t, problem.beta)
    assert relative_move(problem.report.solution, report.solution) <= MOVE_RTOL


@pytest.fixture(scope="module")
def two_level_cap():
    problem = Problem(generate(ManifoldSpec.spherical_cap(0.5, 8000), seed=0, jitter=0.25))
    assert problem.cloud.n == 8188
    assert problem.report.diagnostics["preconditioner"] == "two-level"
    return problem


def test_two_level_covariant_scaling_keeps_the_solution(two_level_cap):
    _, report = two_level_cap.scaled(3.0)
    assert report.diagnostics["preconditioner"] == "two-level"
    assert relative_move(two_level_cap.report.solution, report.solution) <= MOVE_RTOL


def test_two_level_rotation_keeps_the_solution_to_tol(two_level_cap):
    cloud, q = two_level_cap.cloud, rotation(0, 3)
    rotated = PointCloud(cloud.points @ q.T, cloud.intrinsic_dim, cloud.boundary_indices,
                         cloud.volume_weights, cloud.area_weights, dict(cloud.metadata))
    _, report = two_level_cap.solve(rotated, source(rotated.points @ q),
                                    boundary_data(rotated.boundary_points @ q),
                                    two_level_cap.t, two_level_cap.beta)
    assert report.diagnostics["preconditioner"] == "two-level"
    assert relative_move(two_level_cap.report.solution, report.solution) \
        <= TWO_LEVEL_ROTATION_RTOL
