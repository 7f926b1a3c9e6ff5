"""The solution does not depend on how a cloud is listed or oriented.

A row permutation of the cloud, its weights and its data, or a rotation of
the cloud with the data rotated along, poses the same problem, so
``analysis.solve_on_cloud`` must return the same solution up to rounding:
only the order of the pairwise sums and the rounding of the rotated
coordinates change.  Over 20 permutations and 20 rotations of each cloud
below the largest move measured was 2.8e-15 relative to max |u|; the bound
is about 36 times that.
"""

import numpy as np
import pytest

from pim.analysis import Coupling, solve_on_cloud
from pim.pointcloud import ManifoldSpec, PointCloud, generate

RTOL = 1e-13


def source(x):
    return np.cos(2.0 * x[:, 0]) + x[:, 1]


def boundary_data(x):
    return np.sin(3.0 * x[:, 1]) + x[:, 0]


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
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((cloud.ambient_dim,) * 2))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rotated = PointCloud(cloud.points @ q.T, cloud.intrinsic_dim, cloud.boundary_indices,
                         cloud.volume_weights, cloud.area_weights, dict(cloud.metadata))
    # the data rotate with the cloud: evaluated at the rotated points, mapped back
    v = solve(rotated, source(rotated.points @ q), boundary_data(rotated.boundary_points @ q))
    assert relative_move(u, v) <= RTOL
