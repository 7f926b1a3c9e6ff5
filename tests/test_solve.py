import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf

from oracles import band_storage
from pim import analysis
from pim.assembly import LinearSystem, assemble
from pim.config import DEFAULTS
from pim.kernel import KernelParams, cubic_profile, truncated_gaussian_profile
from pim.pointcloud import generate
from pim.solve import (CELL_FACTOR, COARSE_LU_MATVECS, NoConvergence, PIVOT_RTOL,
                       SingularMatrix, SolveOptions, SolverError, TWO_LEVEL_MIN_N,
                       _aggregates, _band_storage, _solve_iterative, _two_level,
                       _true_residual, solve)


def assembled(cloud, t=0.01, beta=0.2, *, dense_cutoff):
    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    f = np.zeros(cloud.n)
    b = np.sin(cloud.boundary_points[:, 0]) + 1.5
    return assemble(cloud, params, cubic_profile, beta, f, b, dense_cutoff=dense_cutoff)


def test_constant_data_recovers_constant(all_clouds):
    c = -0.75
    for name, cloud in all_clouds.items():
        t = 0.01 if cloud.intrinsic_dim == 1 else 0.05
        params = KernelParams(t=t, k=cloud.intrinsic_dim)
        system = assemble(cloud, params, cubic_profile, 0.2,
                          np.zeros(cloud.n),
                          np.full(len(cloud.boundary_indices), c),
                          dense_cutoff=cloud.n)
        report = solve(system)
        assert np.max(np.abs(report.solution - c)) < 1e-10, name


def test_zero_rhs_gives_zero_solution(interval_cloud):
    params = KernelParams(t=0.01, k=1)
    m = len(interval_cloud.boundary_indices)
    for cutoff in (interval_cloud.n, 0):
        system = assemble(interval_cloud, params, cubic_profile, 0.2,
                          np.zeros(interval_cloud.n), np.zeros(m),
                          dense_cutoff=cutoff)
        report = solve(system)
        assert np.all(report.solution == 0.0)
        assert report.residual_norm == 0.0


def test_dense_and_iterative_agree(interval_cloud):
    system = assembled(interval_cloud, dense_cutoff=interval_cloud.n)
    direct = solve(system, SolveOptions(method="dense-lu"))
    sparse_system = assembled(interval_cloud, dense_cutoff=0)
    iterative = solve(sparse_system, SolveOptions(method="iterative"))
    assert direct.method == "dense-lu"
    assert iterative.method == "iterative"
    assert iterative.iterations > 0
    gap = np.max(np.abs(direct.solution - iterative.solution))
    assert gap <= 1e-8


def test_auto_dispatch(interval_cloud):
    dense_report = solve(assembled(interval_cloud, dense_cutoff=interval_cloud.n))
    sparse_report = solve(assembled(interval_cloud, dense_cutoff=0))
    assert dense_report.method == "dense-lu"
    assert sparse_report.method == "iterative"


def test_iterative_on_dense_storage(interval_cloud):
    # method is an explicit override, not tied to the dense flag
    system = assembled(interval_cloud, dense_cutoff=interval_cloud.n)
    assert system.meta["dense"]
    report = solve(system, SolveOptions(method="iterative"))
    assert report.method == "iterative"
    assert report.residual_norm <= 1e-10


def test_reported_residual_is_recomputed(interval_cloud):
    for cutoff in (interval_cloud.n, 0):
        system = assembled(interval_cloud, dense_cutoff=cutoff)
        report = solve(system)
        again = _true_residual(system, report.solution)
        assert report.residual_norm == pytest.approx(again, rel=1e-12)
        assert report.residual_norm <= 1e-10
        if report.method == "dense-lu":     # LU claims no residual of its own
            assert "preconditioned_residual" not in report.diagnostics
            continue
        claimed = report.diagnostics["preconditioned_residual"]
        # the claimed value may be optimistic but not wildly so
        assert claimed <= 10.0 * max(report.residual_norm, 1e-15) + 1e-12


def tridiagonal_with_equal_rows(n=40, i=20):
    mat = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    mat[i] = mat[i + 1] = 0.0
    mat[i, i:i + 2] = mat[i + 1, i:i + 2] = [4.0, -1.0]
    return mat


def test_singular_matrix_raises():
    # the matrix with no stored entries has an empty band, (0, 0)
    for mat in (np.array([[1.0, 2.0], [2.0, 4.0]]), tridiagonal_with_equal_rows(),
                np.zeros((3, 3))):
        system = LinearSystem(matrix=sp.csr_matrix(mat), rhs=np.ones(mat.shape[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns before we can raise
            with pytest.raises(SingularMatrix) as exc:
                solve(system, SolveOptions(method="dense-lu"))
        assert "min_pivot" in exc.value.diagnostics
        assert exc.value.diagnostics["bandwidth"] == scipy.linalg.bandwidth(mat)
        assert isinstance(exc.value, SolverError)


def test_linear_system_needs_csr():
    # the direct LU reads the CSR arrays; GMRES alone would take an ndarray
    for mat in (2.0 * np.eye(4), sp.csc_matrix(2.0 * np.eye(4))):
        with pytest.raises(TypeError, match=f"CSR matrix, got {type(mat).__name__}"):
            LinearSystem(matrix=mat, rhs=np.ones(4))


def test_linear_system_shapes_must_fit():
    mat = sp.csr_matrix(2.0 * np.eye(4))
    for m, rhs in ((mat, np.ones(3)), (mat, np.ones((4, 1))), (mat[:3], np.ones(4))):
        with pytest.raises(ValueError, match=(rf"matrix of shape \({m.shape[0]}, 4\) does not fit "
                                              rf"rhs of shape \({rhs.shape[0]},")):
            LinearSystem(matrix=m, rhs=rhs)


def test_dense_lu_adds_repeated_entries():
    # a CSR matrix may store (i, j) twice; it means the sum, as in toarray
    mat = sp.csr_matrix((np.array([1.0, 1.0, -1.0, 2.0, 2.0]), np.array([0, 0, 1, 1, 2]),
                         np.array([0, 3, 4, 5])), shape=(3, 3))
    report = solve(LinearSystem(matrix=mat, rhs=np.ones(3)), SolveOptions(method="dense-lu"))
    assert report.diagnostics["bandwidth"] == (0, 1)
    assert np.allclose(report.solution, np.linalg.solve(mat.toarray(), np.ones(3)),
                       rtol=1e-15, atol=0)


def test_unreachable_tolerance_raises(interval_cloud):
    system = assembled(interval_cloud, dense_cutoff=interval_cloud.n)
    with pytest.raises(NoConvergence) as exc:
        solve(system, SolveOptions(tol=1e-30))
    assert exc.value.diagnostics["residual"] > 1e-30

    sparse_system = assembled(interval_cloud, dense_cutoff=0)
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
        cutoff = interval_cloud.n if method == "dense-lu" else 0
        a = solve(assembled(interval_cloud, dense_cutoff=cutoff),
                  SolveOptions(method=method))
        b = solve(assembled(interval_cloud, dense_cutoff=cutoff),
                  SolveOptions(method=method))
        assert np.array_equal(a.solution, b.solution)


@pytest.mark.parametrize("method", ["dense-lu", "iterative"])
def test_nan_residual_is_a_failure(method):
    # NaN compares False against the tolerance; a NaN residual once passed
    # the verification and came back as a "solved" all-NaN vector
    mat = 2.0 * np.eye(4)
    mat[2, 1] = np.nan
    system = LinearSystem(matrix=sp.csr_matrix(mat), rhs=np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NoConvergence) as exc:
            solve(system, SolveOptions(method=method))
    assert np.isnan(exc.value.diagnostics["residual"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_rhs_is_a_failure(bad):
    rhs = np.ones(4)
    rhs[1] = bad
    system = LinearSystem(matrix=sp.csr_matrix(2.0 * np.eye(4)), rhs=rhs)
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


# ---------------------------------------------------------------------------
# the own GMRES loop repeats scipy's gmres bit for bit
# ---------------------------------------------------------------------------

def scipy_gmres(system, options):
    """scipy's ``gmres`` called as ``_solve_iterative`` sets it up: the oracle."""
    a = system.matrix
    diag = a.diagonal()
    restart = min(options.restart, system.n)
    maxiter = max(1, math.ceil(options.max_iter_factor * system.n / restart))
    history = []
    x, info = spla.gmres(a, system.rhs, M=sp.diags(1.0 / np.where(diag != 0.0, diag, 1.0)),
                         rtol=max(options.tol * 0.05, 1e-15), atol=0.0, restart=restart,
                         maxiter=maxiter, callback=history.append, callback_type="pr_norm")
    return x, history, info


def shuffled(cloud, seed=0):
    """``cloud`` with its points listed in random order, as a loaded CSV may list them."""
    perm = np.random.default_rng(seed).permutation(cloud.n)
    return dataclasses.replace(cloud, points=cloud.points[perm],
                               volume_weights=cloud.volume_weights[perm],
                               boundary_indices=np.argsort(perm)[cloud.boundary_indices])


def case_system(name, n, profile, *, dense_cutoff=0, shuffle=False):
    """A built-in case on its jittered cloud under the default coupling."""
    case = analysis.get_case(name)
    cloud = generate(case.spec.with_resolution(n), seed=0, jitter=0.25)
    if shuffle:
        cloud = shuffled(cloud)
    coupling = analysis.Coupling()
    t = coupling.t_of(cloud.metadata["h"])
    return assemble(cloud, KernelParams(t=t, k=cloud.intrinsic_dim), profile,
                    coupling.beta_of(t), case.f(cloud.points), case.b(cloud.boundary_points),
                    dense_cutoff=dense_cutoff)


GMRES_CASES = {
    "disk 2k": ("disk_paraboloid", 2000, {}),
    "interval 801": ("interval_sine", 801, {}),
    "rectangle 900": ("rectangle_quadratic", 900, {}),
    "interval 801, dense flag": ("interval_sine", 801, {"dense_cutoff": 801}),
    "disk 2k, restart 7": ("disk_paraboloid", 2000, {"restart": 7}),
    "interval 801, restart 2, spent budget": ("interval_sine", 801,
                                              {"restart": 2, "max_iter_factor": 1}),
}


@pytest.mark.parametrize("profile", [cubic_profile, truncated_gaussian_profile],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("case", list(GMRES_CASES))
def test_gmres_repeats_scipy_bit_for_bit(case, profile):
    name, n, settings = GMRES_CASES[case]
    settings = dict(settings)
    system = case_system(name, n, profile, dense_cutoff=settings.pop("dense_cutoff", 0))
    assert system.meta["dense"] == ("dense flag" in case)
    options = SolveOptions(method="iterative", **settings)
    x, iterations, diagnostics = _solve_iterative(system, options)
    expected, history, info = scipy_gmres(system, options)
    assert x.tobytes() == expected.tobytes()
    assert iterations == len(history)
    assert diagnostics["preconditioned_residual"] == history[-1]
    assert diagnostics["info"] == info
    assert bool(info) == ("spent budget" in case)
    if "restart" in settings:   # several outer cycles
        assert iterations > 3 * settings["restart"]
    if info:
        with pytest.raises(NoConvergence) as exc:
            solve(system, options)
        assert exc.value.diagnostics["iterations"] == len(history)
    else:
        assert solve(system, options).solution.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# every direct solve is a band LU, in agreement with the full LU of a dense copy
# ---------------------------------------------------------------------------

BAND_CASES = {**{f"interval {n}": ("interval_sine", n) for n in (101, 201, 301, 401, 501)},
              "rectangle 400": ("rectangle_quadratic", 400),
              "rectangle 484": ("rectangle_quadratic", 484),
              "disk 484": ("disk_paraboloid", 484),
              "cap 440": ("cap_linear", 440),
              # random point order: the band is as wide as the matrix
              "interval 501, shuffled": ("interval_sine", 501, True),
              "disk 484, shuffled": ("disk_paraboloid", 484, True)}
DENSE_CUTOFF = DEFAULTS["assembly.dense_cutoff"]


def band_case_system(case):
    name, n, *shuffle = BAND_CASES[case]
    return case_system(name, n, cubic_profile, dense_cutoff=DENSE_CUTOFF, shuffle=bool(shuffle))


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_band_lu_agrees_with_full_lu(case):
    system = band_case_system(case)
    assert system.meta["dense"]
    report = solve(system)
    assert report.method == "dense-lu"
    a = system.matrix.toarray()
    kl, ku = report.diagnostics["bandwidth"]
    assert (kl, ku) == scipy.linalg.bandwidth(a)
    if "shuffled" in case:
        assert min(kl, ku) > 0.9 * system.n
    lu, piv = scipy.linalg.lu_factor(a)
    expected = scipy.linalg.lu_solve((lu, piv), system.rhs)
    assert np.max(np.abs(report.solution - expected)) <= 1e-12 * np.max(np.abs(expected))
    band_lu, band_piv, info = dgbtrf(band_storage(a, kl, ku), kl, ku)
    assert info == 0
    assert np.array_equal(band_piv, piv)   # the same row interchanges
    pivots = np.abs(np.diag(lu))
    np.testing.assert_allclose(np.abs(band_lu[kl + ku]), pivots, rtol=1e-12, atol=0)
    assert report.diagnostics["min_pivot"] == pytest.approx(pivots.min(), rel=1e-12)
    assert report.diagnostics["max_pivot"] == pytest.approx(pivots.max(), rel=1e-12)


STORED_ZERO = "3x3 with a stored zero"


@pytest.mark.parametrize("case", [*BAND_CASES, STORED_ZERO])
def test_band_storage_scatter_equals_diagonal_copies(case):
    # one flat scatter from the CSR arrays gives the band the per-diagonal
    # copy of the dense matrix gives; a stored zero lands as a zero
    if case == STORED_ZERO:
        mat = sp.csr_matrix((np.array([4.0, 0.0, -1.0, 4.0, -1.0, 2.0]),
                             np.array([0, 1, 0, 1, 2, 2]), np.array([0, 2, 5, 6])), shape=(3, 3))
        assert mat.nnz == 6 and mat.data[1] == 0.0
    else:
        mat = band_case_system(case).matrix
    a = mat.toarray()
    kl, ku = scipy.linalg.bandwidth(a)
    coo = mat.tocoo()
    ab = _band_storage(mat, coo.col - coo.row, kl, ku)
    assert ab.flags.f_contiguous
    assert np.array_equal(ab, band_storage(a, kl, ku))


# ---------------------------------------------------------------------------
# from TWO_LEVEL_MIN_N rows on, GMRES takes the two-level preconditioner
# ---------------------------------------------------------------------------

TWO_LEVEL_CASES = {"disk 4186": ("disk_paraboloid", 4096),
                   "cap 4237": ("cap_linear", 4096),
                   "rectangle 4096": ("rectangle_quadratic", 4096),
                   "interval 4096": ("interval_sine", 4096),
                   "disk 4186, shuffled": ("disk_paraboloid", 4096, True)}


def without_points(system):
    """``system`` as a hand-built one, which takes Jacobi at any size: the same
    matrix and rhs, no points."""
    return LinearSystem(matrix=system.matrix, rhs=system.rhs,
                        meta={k: v for k, v in system.meta.items() if k != "points"})


@pytest.mark.parametrize("case", list(TWO_LEVEL_CASES))
def test_two_level_agrees_with_jacobi(case):
    name, n, *shuffle = TWO_LEVEL_CASES[case]
    system = case_system(name, n, cubic_profile, shuffle=bool(shuffle))
    assert system.n >= TWO_LEVEL_MIN_N and system.meta["points"] is not None
    two_level = solve(system)
    jacobi = solve(without_points(system))
    assert two_level.diagnostics["preconditioner"] == "two-level"
    assert jacobi.diagnostics["preconditioner"] == "jacobi"
    assert two_level.residual_norm == _true_residual(system, two_level.solution)
    assert two_level.residual_norm <= SolveOptions().tol
    expected = jacobi.solution
    assert np.max(np.abs(two_level.solution - expected)) <= 1e-10 * np.max(np.abs(expected))
    assert two_level.iterations <= 15 < jacobi.iterations
    assert 1 < two_level.diagnostics["coarse_size"] < system.n / 4
    assert two_level.diagnostics["coarse_setup_s"] > 0.0


def test_two_level_iterations_on_the_solve_cap_cloud():
    # the jittered 8 188-point cap; Jacobi takes 67 iterations here
    system = case_system("cap_linear", 8000, cubic_profile)
    assert system.n == 8188
    report = solve(system)
    assert report.diagnostics["preconditioner"] == "two-level"
    assert report.iterations <= 15
    assert report.residual_norm <= SolveOptions().tol


@pytest.mark.parametrize("name,n", [("interval_sine", 4095), ("rectangle_quadratic", 4000),
                                    ("disk_paraboloid", 2000)])
def test_jacobi_below_the_cutoff(name, n):
    system = case_system(name, n, cubic_profile)
    assert system.n < TWO_LEVEL_MIN_N
    report = solve(system)
    assert report.diagnostics["preconditioner"] == "jacobi"
    assert report.diagnostics["coarse_size"] == 0


def coarse_cap(system):
    """The most aggregates whose dense LU costs at most ``COARSE_LU_MATVECS`` matvecs."""
    return int((3 * COARSE_LU_MATVECS * system.matrix.nnz) ** (1 / 3))


def test_coarse_size_is_capped_by_the_cost_of_its_lu():
    # at a sixteenth of the default t the support radius is a quarter as wide,
    # so the 0.35 r cells number about 16 times as many: the 4 186-point disk
    # once factored a dense coarse matrix of 4 080 of them, and the 8 188-point
    # cap one of 7 162, which took over 4 s where the default t took 0.1 s
    case = analysis.get_case("disk_paraboloid")
    cloud = generate(case.spec.with_resolution(4096), seed=0, jitter=0.25)
    coupling = analysis.Coupling()
    t = coupling.t_of(cloud.metadata["h"]) / 16
    system = assemble(cloud, KernelParams(t=t, k=2), cubic_profile, coupling.beta_of(t),
                      case.f(cloud.points), case.b(cloud.boundary_points), dense_cutoff=0)
    assert system.n > TWO_LEVEL_MIN_N
    report = solve(system)
    assert report.diagnostics["preconditioner"] == "two-level"
    assert 1 < report.diagnostics["coarse_size"] <= coarse_cap(system)
    assert report.residual_norm <= SolveOptions().tol


def test_aggregates_widen_only_past_the_cap():
    points = generate(analysis.get_case("cap_linear").spec.with_resolution(4096),
                      seed=0, jitter=0.25).points
    width = 0.05
    cells = np.floor((points - points.min(axis=0)) / width)
    _, plain = np.unique(cells, axis=0, return_inverse=True)
    count = int(plain.max()) + 1
    agg, nc = _aggregates(points, width, count)
    assert nc == count and np.array_equal(agg, plain.ravel())
    for cap in (count - 1, count // 10, 1):
        agg, nc = _aggregates(points, width, cap)
        assert 1 <= nc <= cap and np.array_equal(np.unique(agg), np.arange(nc))


@pytest.mark.parametrize("name", ["disk_paraboloid", "cap_linear"])
def test_two_level_equals_its_dense_construction(name):
    # one application is z = P c + D^-1 (y - A P c) with c = (P^T A P)^-1 P^T y;
    # here from dense A and P, on clouds small enough (963 and 976 points)
    # that A stays under 8 MB
    system = case_system(name, 960, cubic_profile)
    n, points, radius = system.n, system.meta["points"], system.meta["support_radius"]
    assert n < 1000
    diag = system.diagonal
    dinv = 1.0 / np.where(diag != 0.0, diag, 1.0)
    prec, nc = _two_level(system.matrix, dinv, points, radius)
    agg, want_nc = _aggregates(points, CELL_FACTOR * radius, coarse_cap(system))
    assert nc == want_nc > 1
    p = np.zeros((n, nc))
    p[np.arange(n), agg] = 1.0
    ap = system.matrix.toarray() @ p
    for y in np.random.default_rng(0).standard_normal((3, n)):
        c = np.linalg.solve(p.T @ ap, p.T @ y)
        want = p @ c + dinv * (y - ap @ c)
        out = np.empty(n)
        assert prec(y, out) is out
        assert np.max(np.abs(out - want)) <= 1e-10 * np.max(np.abs(want))


def test_solve_leaves_the_matrix_arrays_unchanged():
    # a coarse matrix built on A's own arrays once re-sorted them in place,
    # and GMRES then spent its whole budget on the scrambled matrix
    system = case_system("disk_paraboloid", 4096, cubic_profile, shuffle=True)
    a = system.matrix
    before = [x.tobytes() for x in (a.data, a.indices, a.indptr)]
    assert solve(system).diagnostics["preconditioner"] == "two-level"
    assert [x.tobytes() for x in (a.data, a.indices, a.indptr)] == before


def test_dense_lu_leaves_duplicate_entries_unchanged():
    # row 0 stores column 0 twice; the band LU sums them on its own copy
    a = sp.csr_matrix((np.array([1.0, 3.0, -1.0, 4.0, 5.0]), np.array([0, 0, 1, 1, 2]),
                       np.array([0, 3, 4, 5])), shape=(3, 3))
    before = [x.tobytes() for x in (a.data, a.indices, a.indptr)]
    rhs = np.array([1.0, 2.0, 3.0])
    got = solve(LinearSystem(a, rhs), SolveOptions(method="dense-lu")).solution
    assert [x.tobytes() for x in (a.data, a.indices, a.indptr)] == before
    canonical = sp.csr_matrix(np.array([[4.0, -1.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 5.0]]))
    want = solve(LinearSystem(canonical, rhs), SolveOptions(method="dense-lu")).solution
    assert got.tobytes() == want.tobytes()


def test_two_level_accepts_a_stalled_iterate_inside_tol():
    # at t = 1e-4 the two-level's inner target, 0.005 * tol, lies below the
    # ~1e-12 true residual this system reaches; without the stall rule GMRES
    # spent its whole budget (here 4 097 iterations) and raised NoConvergence
    case = analysis.get_case("interval_sine")
    cloud = generate(case.spec.with_resolution(4097))
    options = SolveOptions(max_iter_factor=1)
    _, report = analysis.solve_case_on_cloud(case, cloud, t=1e-4, beta=0.1,
                                             solver_options=options)
    assert report.diagnostics["preconditioner"] == "two-level"
    assert report.diagnostics["info"] == 0
    assert report.residual_norm <= options.tol
    assert report.iterations <= 100


def test_singular_coarse_matrix_raises_before_gmres(monkeypatch):
    # a jittered disk plus a copy of 40 interior points 10 units away: the
    # copy has no boundary sample, so the matrix and its coarse matrix
    # annihilate constants on it
    disk = generate(analysis.get_case("disk_paraboloid").spec.with_resolution(8000),
                    seed=0, jitter=0.25)
    interior = np.setdiff1d(np.arange(disk.n), disk.boundary_indices)
    near = interior[np.argsort(np.linalg.norm(disk.points[interior], axis=1))[:40]]
    cloud = dataclasses.replace(
        disk, points=np.vstack([disk.points, disk.points[near] + [10.0, 0.0]]),
        volume_weights=np.concatenate([disk.volume_weights, disk.volume_weights[near]]))
    assert cloud.n == 8052
    t = analysis.Coupling().t_of(disk.metadata["h"])
    system = assemble(cloud, KernelParams(t=t, k=2), cubic_profile,
                      analysis.Coupling().beta_of(t), np.full(cloud.n, 4.0),
                      np.zeros(cloud.boundary_indices.size), dense_cutoff=0)

    def no_gmres(*args, **kwargs):
        raise AssertionError("GMRES ran on a singular coarse matrix")

    # ``pim.solve`` names the function once the package is imported
    monkeypatch.setattr(importlib.import_module("pim.solve"), "_gmres", no_gmres)
    with pytest.raises(SingularMatrix, match="coarse LU pivot") as exc:
        solve(system)
    diag = exc.value.diagnostics
    assert diag["coarse_size"] > 1
    assert diag["min_pivot"] <= diag["threshold"] == PIVOT_RTOL * diag["max_pivot"]


def test_gmres_breakdown_is_reported_as_a_breakdown():
    # with A = diag(1, 0) and b = (1, 1) the Krylov space stops growing after
    # two steps, short of any solution; scipy's info then reads as a spent
    # budget and its claimed residual as 0, so the error must name the
    # breakdown and carry the true residual of the last restart
    system = LinearSystem(sp.csr_matrix(np.diag([1.0, 0.0])), np.array([1.0, 1.0]))
    with pytest.raises(NoConvergence, match="broke down") as exc:
        solve(system, SolveOptions(method="iterative"))
    diag = exc.value.diagnostics
    assert diag["breakdown"] is True
    assert diag["restart_residual"] == diag["residual"] == pytest.approx(math.sqrt(0.5))
    assert diag["info"] == 10 and diag["preconditioned_residual"] == 0.0 and diag["iterations"] == 2
    # a converged solve reports no breakdown, and its last restart's ratio is
    # the verified residual
    report = solve(case_system("interval_sine", 801, cubic_profile), SolveOptions(method="iterative"))
    assert report.diagnostics["breakdown"] is False
    assert report.diagnostics["restart_residual"] == report.residual_norm
