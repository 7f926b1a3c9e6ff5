"""The benchmark's workloads: seeded inputs, the op, its traced replay and
the output checks.

Every workload uses the default coupling rule (t = 0.1 h^(4/7),
beta = 0.5 sqrt(t)) and a cloud jittered by 0.25 of its spacing with the
workload seed; reference clouds stay unjittered.  The program only ever sees
the generated inputs: a cloud CSV for the ``pim solve`` workloads, or
``PointCloud`` objects for the library workload.

Output checks run outside the timed region and trust nothing the program
reports about itself: the solution must be finite, the kernel reconstruction
must reproduce it at seed-chosen sample rows (I(p_i) = u_i holds only where
row i of the system is satisfied), and the accuracy must stay under a
tolerance set from the unmodified code.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from pim import analysis, cli, pointcloud
from pim.assembly import assemble
from pim.config import DEFAULTS
from pim.interpolate import Interpolant
from pim.kernel import KernelParams, get_profile
from pim.neighbors import NeighborIndex
from pim.solve import SolveOptions, solve

JITTER = 0.25
CHECK_ROWS = 64
IDENTITY_RTOL = 1e-9  # |I(p_i) - u_i| relative to max |u|

PROFILE = get_profile(DEFAULTS["kernel.profile"])
DENSE_CUTOFF = DEFAULTS["assembly.dense_cutoff"]
SOLVER = SolveOptions(method=DEFAULTS["solver.method"], tol=DEFAULTS["solver.tol"],
                      max_iter_factor=DEFAULTS["solver.max_iter_factor"],
                      restart=DEFAULTS["solver.restart"])


class CheckFailed(Exception):
    """An op's output failed an independent check."""


@dataclass
class Inputs:
    cloud: pointcloud.PointCloud
    t: float
    beta: float
    rows: np.ndarray                      # sample rows for the identity check
    ref: Optional[pointcloud.PointCloud] = None
    cloud_csv: Optional[str] = None
    out_csv: Optional[str] = None

    @property
    def params(self) -> KernelParams:
        return KernelParams(t=self.t, k=self.cloud.intrinsic_dim)


@dataclass
class Layers:
    """What the traced replay hands to the per-layer counters."""

    system: object
    report: object
    interp: Optional[Interpolant] = None


def check_identity(inp: Inputs, u: np.ndarray, interp: Interpolant) -> None:
    if u.shape != (inp.cloud.n,) or not np.all(np.isfinite(u)):
        raise CheckFailed("solution is missing values or has non-finite values")
    rec = interp.eval_many(inp.cloud.points[inp.rows])
    gap = float(np.max(np.abs(rec - u[inp.rows])))
    scale = float(np.max(np.abs(u)))
    if not gap <= IDENTITY_RTOL * scale:
        raise CheckFailed(f"reconstruction misses the solution at sample rows: "
                          f"max |I(p_i) - u_i| = {gap:.3e}, max |u| = {scale:.3e}")


def count_pairs(tree: cKDTree, queries: np.ndarray, radius: float) -> int:
    return int(np.sum(tree.query_ball_point(queries, radius, return_length=True)))


def neighbor_counts(lists: list) -> dict:
    per_row = np.array([len(nbr) for nbr in lists])
    return {"neighbors.pairs": int(per_row.sum()),
            "neighbors.per_row_min": int(per_row.min()),
            "neighbors.per_row_mean": float(per_row.mean()),
            "neighbors.per_row_max": int(per_row.max())}


def layer_counts(layers: Layers) -> dict:
    mat = layers.system.matrix
    if isinstance(mat, np.ndarray):
        nnz, nbytes, dense = int(np.count_nonzero(mat)), int(mat.nbytes), 1
    else:
        nnz = int(mat.nnz)
        nbytes = int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)
        dense = 0
    return {"assembly.nnz": nnz, "assembly.dense": dense,
            "assembly.matrix_bytes": nbytes,
            "solve.iterations": int(layers.report.iterations),
            "solve.residual": float(layers.report.residual_norm)}


class Workload:
    name = ""
    op = ""
    spec: pointcloud.ManifoldSpec
    case_name = ""
    tolerance = 0.0
    error_meaning = ""

    def __init__(self):
        self.case = analysis.get_case(self.case_name)

    def make_inputs(self, seed: int, workdir: str, tracer, op: int) -> Inputs:
        with tracer.span("pointcloud.generate", op):
            cloud = pointcloud.generate(self.spec, seed=seed, jitter=JITTER)
        coupling = analysis.Coupling()
        t = coupling.t_of(cloud.metadata["h"])
        rng = np.random.default_rng([seed, 1])
        rows = np.sort(rng.choice(cloud.n, size=min(CHECK_ROWS, cloud.n), replace=False))
        return Inputs(cloud=cloud, t=t, beta=coupling.beta_of(t), rows=rows)

    def prepare(self, inp: Inputs) -> None:
        """Untimed step before each op."""

    def run_op(self, inp: Inputs):
        raise NotImplementedError

    def check(self, inp: Inputs, result) -> float:
        """Return the op's error; raise CheckFailed if the output is wrong."""
        raise NotImplementedError

    def check_error(self, error: float) -> float:
        if not error <= self.tolerance:
            raise CheckFailed(f"error {error:.6g} above tolerance {self.tolerance:g}")
        return error

    def traced_op(self, inp: Inputs, tracer, op: int):
        """Run the op under tracing; returns (result for check, Layers or None)."""
        raise NotImplementedError

    def replay(self, inp: Inputs, tracer, op: int) -> Optional[Layers]:
        """Layer-by-layer replay of an op that runs inside one program call."""
        return None

    def probe(self, inp: Inputs, layers: Layers, tracer, op: int) -> dict:
        """Time layers the op reaches only from inside the library; return counts."""
        with tracer.span("probe", op):
            with tracer.span("neighbors.query_self", op):
                lists = NeighborIndex(inp.cloud.points, inp.params.support_radius).query_self()
        return neighbor_counts(lists)

    def interpolate_counts(self, inp: Inputs) -> dict:
        return {"interpolate.queries": 0, "interpolate.support_pairs": 0,
                "interpolate.dense_pairs": 0, "interpolate.support_ratio": 0.0}


class CliSolve(Workload):
    """``pim solve --case <case>`` on a cloud CSV, in-process via cli.main."""

    error_meaning = "max |u - u_exact| over the samples"

    def make_inputs(self, seed, workdir, tracer, op):
        inp = super().make_inputs(seed, workdir, tracer, op)
        inp.cloud_csv = os.path.join(workdir, "cloud.csv")
        inp.out_csv = os.path.join(workdir, "solution.csv")
        pointcloud.save(inp.cloud, inp.cloud_csv)
        return inp

    def argv(self, inp: Inputs) -> list:
        return ["solve", "--cloud", inp.cloud_csv, "--case", self.case_name,
                "--out", inp.out_csv]

    def prepare(self, inp):
        # a stale solution file must not pass the next op's check
        with contextlib.suppress(FileNotFoundError):
            os.remove(inp.out_csv)

    def run_op(self, inp):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(self.argv(inp))

    def check(self, inp, rc):
        if rc != 0:
            raise CheckFailed(f"pim solve exited with {rc}")
        cloud = inp.cloud
        data = np.loadtxt(inp.out_csv, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (cloud.n, cloud.ambient_dim + 1) or \
                not np.array_equal(data[:, :-1], cloud.points):
            raise CheckFailed("solution CSV rows do not match the cloud")
        return self.check_solution(inp, data[:, -1])

    def check_solution(self, inp: Inputs, u: np.ndarray) -> float:
        cloud = inp.cloud
        interp = Interpolant(cloud=cloud, params=inp.params, profile=PROFILE,
                             beta=inp.beta, u=u, f=self.case.f(cloud.points),
                             b=self.case.b(cloud.boundary_points))
        check_identity(inp, u, interp)
        return self.check_error(float(np.max(np.abs(u - self.case.u(cloud.points)))))

    def traced_op(self, inp, tracer, op):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            with tracer.span("cli.solve", op):
                rc = cli.main(self.argv(inp))
        return rc, None

    def replay(self, inp, tracer, op):
        # The same public calls cmd_solve makes, minus argument parsing and
        # the solution/report writing.
        with tracer.span("replay", op):
            with tracer.span("pointcloud.load", op):
                cloud = pointcloud.load(inp.cloud_csv)
            f = self.case.f(cloud.points)
            b = self.case.b(cloud.boundary_points)
            with tracer.span("pointcloud.fill_distance", op):
                h = pointcloud.fill_distance(cloud)
            coupling = analysis.Coupling()
            t = coupling.t_of(h)
            beta = coupling.beta_of(t)
            params = KernelParams(t=t, k=cloud.intrinsic_dim)
            with tracer.span("assembly.assemble", op):
                system = assemble(cloud, params, PROFILE, beta, f, b,
                                  dense_cutoff=DENSE_CUTOFF)
            with tracer.span("solve.solve", op):
                report = solve(system, SOLVER)
        self.check_solution(inp, report.solution)
        return Layers(system=system, report=report)


class SolveCap(CliSolve):
    name = "solve-cap"
    case_name = "cap_linear"
    spec = pointcloud.ManifoldSpec.spherical_cap(0.5, 8188)
    op = "pim solve --case cap_linear on the cap cloud CSV, in-process via pim.cli.main"
    tolerance = 0.06


class DenseInterval(CliSolve):
    name = "dense-interval"
    case_name = "interval_sine"
    spec = pointcloud.ManifoldSpec.interval(0.0, 1.0, 501)
    op = "pim solve --case interval_sine on the interval cloud CSV, in-process via pim.cli.main"
    tolerance = 0.11


class SweepDisk(Workload):
    name = "sweep-disk"
    case_name = "disk_paraboloid"
    op = ("analysis.solve_case_on_cloud on the disk cloud, then l2_error, h1_error "
          "and boundary_l2_error on the unjittered 4x reference cloud")
    tolerance = 0.3
    error_meaning = "H1 error of the reconstruction on the reference cloud"
    spec = pointcloud.ManifoldSpec.disk(2000)        # realizes 2044 points
    # the 4x reference a convergence sweep level uses; realizes 8012 points
    ref_spec = pointcloud.ManifoldSpec.disk(4 * 2000)

    def make_inputs(self, seed, workdir, tracer, op):
        inp = super().make_inputs(seed, workdir, tracer, op)
        with tracer.span("pointcloud.generate", op):
            inp.ref = pointcloud.generate(self.ref_spec)
        return inp

    def run_op(self, inp):
        interp, report = analysis.solve_case_on_cloud(self.case, inp.cloud, inp.t, inp.beta)
        return (interp, report,
                analysis.l2_error(interp, self.case, inp.ref),
                analysis.h1_error(interp, self.case, inp.ref),
                analysis.boundary_l2_error(interp, self.case, inp.ref))

    def check(self, inp, result):
        interp, report, l2, h1, bl = result
        check_identity(inp, np.asarray(report.solution), interp)
        if not np.all(np.isfinite([l2, h1, bl])):
            raise CheckFailed(f"non-finite error norms l2={l2} h1={h1} boundary={bl}")
        return self.check_error(h1)

    def traced_op(self, inp, tracer, op):
        # The calls solve_case_on_cloud makes, then the three norms.
        cloud, case = inp.cloud, self.case
        with tracer.span("op", op):
            params = inp.params
            f = case.f(cloud.points)
            b = case.b(cloud.boundary_points)
            with tracer.span("assembly.assemble", op):
                system = assemble(cloud, params, PROFILE, inp.beta, f, b,
                                  dense_cutoff=DENSE_CUTOFF)
            with tracer.span("solve.solve", op):
                report = solve(system)
            interp = Interpolant(cloud=cloud, params=params, profile=PROFILE,
                                 beta=inp.beta, u=report.solution, f=f, b=b)
            with tracer.span("analysis.l2_error", op):
                l2 = analysis.l2_error(interp, case, inp.ref)
            with tracer.span("analysis.h1_error", op):
                h1 = analysis.h1_error(interp, case, inp.ref)
            with tracer.span("analysis.boundary_l2_error", op):
                bl = analysis.boundary_l2_error(interp, case, inp.ref)
        return (interp, report, l2, h1, bl), Layers(system, report, interp)

    def probe(self, inp, layers, tracer, op):
        counts = super().probe(inp, layers, tracer, op)
        with tracer.span("probe", op):
            with tracer.span("interpolate.eval", op):
                layers.interp.eval_many(inp.ref.points)
            with tracer.span("interpolate.grad", op):
                layers.interp.grad_many(inp.ref.points)
        return counts

    def interpolate_counts(self, inp):
        # Query points the three norms pass to eval_many / grad_many:
        # l2 (values), h1 (values and gradients), boundary (values).
        cloud, ref = inp.cloud, inp.ref
        radius = inp.params.support_radius
        samples = cKDTree(cloud.points)
        boundary = cKDTree(cloud.boundary_points)
        pairs_ref = count_pairs(samples, ref.points, radius) + \
            count_pairs(boundary, ref.points, radius)
        pairs_rim = count_pairs(samples, ref.boundary_points, radius) + \
            count_pairs(boundary, ref.boundary_points, radius)
        queries = 3 * ref.n + ref.boundary_indices.size
        support = 3 * pairs_ref + pairs_rim
        dense = queries * (cloud.n + cloud.boundary_indices.size)
        return {"interpolate.queries": queries, "interpolate.support_pairs": support,
                "interpolate.dense_pairs": dense,
                "interpolate.support_ratio": support / dense}


WORKLOADS = {w.name: w for w in (SolveCap, SweepDisk, DenseInterval)}
