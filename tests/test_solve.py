import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from pim.assembly import LinearSystem, assemble
from pim.kernel import KernelParams, cubic_profile
from pim.solve import (NoConvergence, SingularMatrix, SolveOptions,
                       SolverError, _true_residual, solve)


def assembled(cloud, t=0.01, beta=0.2, dense=True):
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = np.zeros(cloud.n)
    b = np.sin(cloud.boundary_points[:, 0]) + 1.5
    return assemble(cloud, params, cubic_profile, beta, f, b, dense=dense)


def test_constant_data_recovers_constant(all_clouds):
    c = -0.75
    for name, cloud in all_clouds.items():
        t = 0.01 if cloud.intrinsic_dim == 1 else 0.05
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        system = assemble(cloud, params, cubic_profile, 0.2,
                          np.zeros(cloud.n),
                          np.full(len(cloud.boundary_indices), c),
                          dense=True)
        report = solve(system)
        assert np.max(np.abs(report.solution - c)) < 1e-10, name


def test_zero_rhs_gives_zero_solution(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    m = len(interval_cloud.boundary_indices)
    for dense in (True, False):
        system = assemble(interval_cloud, params, cubic_profile, 0.2,
                          np.zeros(interval_cloud.n), np.zeros(m),
                          dense=dense)
        report = solve(system)
        assert np.all(report.solution == 0.0)
        assert report.residual_norm == 0.0


def test_dense_and_iterative_agree(interval_cloud):
    system = assembled(interval_cloud, dense=True)
    direct = solve(system, SolveOptions(method="dense-lu"))
    sparse_system = assembled(interval_cloud, dense=False)
    iterative = solve(sparse_system, SolveOptions(method="iterative"))
    assert direct.method == "dense-lu"
    assert iterative.method == "iterative"
    assert iterative.iterations > 0
    gap = np.max(np.abs(direct.solution - iterative.solution))
    assert gap <= 1e-8


def test_auto_dispatch(interval_cloud):
    dense_report = solve(assembled(interval_cloud, dense=True))
    sparse_report = solve(assembled(interval_cloud, dense=False))
    assert dense_report.method == "dense-lu"
    assert sparse_report.method == "iterative"


def test_iterative_on_dense_storage(interval_cloud):
    # method is an explicit override, not tied to the storage format
    system = assembled(interval_cloud, dense=True)
    report = solve(system, SolveOptions(method="iterative"))
    assert report.method == "iterative"
    assert report.residual_norm <= 1e-10


def test_reported_residual_is_recomputed(interval_cloud):
    for dense in (True, False):
        system = assembled(interval_cloud, dense=dense)
        report = solve(system)
        again = _true_residual(system, report.solution)
        assert report.residual_norm == pytest.approx(again, rel=1e-12)
        assert report.residual_norm <= 1e-10
        claimed = report.diagnostics["claimed_residual"]
        # the claimed value may be optimistic but not wildly so
        assert claimed <= 10.0 * max(report.residual_norm, 1e-15) + 1e-12


def test_singular_matrix_raises():
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    system = LinearSystem(matrix=mat, rhs=np.array([1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns before we can raise
        with pytest.raises(SingularMatrix) as exc:
            solve(system, SolveOptions(method="dense-lu"))
    assert "min_pivot" in exc.value.diagnostics
    assert isinstance(exc.value, SolverError)


def test_unreachable_tolerance_raises(interval_cloud):
    system = assembled(interval_cloud, dense=True)
    with pytest.raises(NoConvergence) as exc:
        solve(system, SolveOptions(tol=1e-30))
    assert exc.value.diagnostics["residual"] > 1e-30

    sparse_system = assembled(interval_cloud, dense=False)
    with pytest.raises(NoConvergence):
        solve(sparse_system, SolveOptions(method="iterative", tol=1e-30))


def test_iteration_starvation_raises():
    # cyclic shift: restarted short-window iterations make no progress, so
    # the budget runs out and the failure must surface as an exception
    n = 64
    shift = sp.eye(n, format="csr")[list(range(1, n)) + [0], :]
    rhs = np.zeros(n)
    rhs[0] = 1.0
    system = LinearSystem(matrix=shift.tocsr(), rhs=rhs)
    with pytest.raises(NoConvergence) as exc:
        solve(system, SolveOptions(method="iterative", max_iter_factor=1,
                                   restart=2, tol=1e-14))
    assert "iterations" in exc.value.diagnostics


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(method="cholesky")
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter_factor=0)
    for restart in (0, -1):
        with pytest.raises(ValueError, match="restart"):
            SolveOptions(restart=restart)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            SolveOptions(tol=tol)


def test_deterministic(interval_cloud):
    for method in ("dense-lu", "iterative"):
        dense = method == "dense-lu"
        a = solve(assembled(interval_cloud, dense=dense),
                  SolveOptions(method=method))
        b = solve(assembled(interval_cloud, dense=dense),
                  SolveOptions(method=method))
        assert np.array_equal(a.solution, b.solution)


@pytest.mark.parametrize("method", ["dense-lu", "iterative"])
def test_nan_residual_is_a_failure(method):
    # NaN compares False against the tolerance; a NaN residual once passed
    # the verification and came back as a "solved" all-NaN vector
    mat = 2.0 * np.eye(4)
    mat[2, 1] = np.nan
    if method == "iterative":
        mat = sp.csr_matrix(mat)
    system = LinearSystem(matrix=mat, rhs=np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NoConvergence) as exc:
            solve(system, SolveOptions(method=method))
    assert np.isnan(exc.value.diagnostics["residual"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_rhs_is_a_failure(bad):
    rhs = np.ones(4)
    rhs[1] = bad
    system = LinearSystem(matrix=2.0 * np.eye(4), rhs=rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("dense-lu", "iterative"):
            with pytest.raises(NoConvergence):
                solve(system, SolveOptions(method=method))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assemble_rejects_nonfinite_data(interval_cloud, bad):
    params = KernelParams(t=0.01, k=1)
    n, m = interval_cloud.n, len(interval_cloud.boundary_indices)
    f = np.zeros(n)
    f[7] = bad
    with pytest.raises(ValueError, match="finite"):
        assemble(interval_cloud, params, cubic_profile, 0.2, f, np.zeros(m))
    b = np.zeros(m)
    b[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        assemble(interval_cloud, params, cubic_profile, 0.2, np.zeros(n), b)


@pytest.mark.parametrize("method", ["dense-lu", "iterative"])
def test_boundary_free_cloud_rejected_before_solving(disk_cloud, method):
    # L annihilates constants, so without boundary points the matrix is
    # singular; GMRES once ran 3 500 iterations on it before failing
    cloud = dataclasses.replace(disk_cloud, boundary_indices=np.array([], dtype=int),
                                area_weights=np.array([]))
    params = KernelParams(t=0.05, k=2)
    system = assemble(cloud, params, cubic_profile, 0.2, np.ones(cloud.n),
                      np.array([]))
    assert system.meta["boundary_points"] == 0
    with pytest.raises(ValueError, match="no boundary points"):
        solve(system, SolveOptions(method=method))
