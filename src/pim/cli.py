"""Command-line driver: generate clouds, solve cases, run sweeps and checks.

Subcommands
-----------
generate      sample a built-in manifold and write the cloud CSV
solve         assemble + solve one problem on a cloud file, write solution CSV
sweep         multi-level convergence study for a built-in case, write CSV
oracle-check  run the operator/kernel oracle comparisons, print a table

Exit codes: 0 success, 1 solver or oracle failure, 2 configuration, parse
or validation errors.  The commands raise; ``main`` alone maps a
``SolverError`` to 1 and an ``OSError`` or ``ValueError`` to 2, and prints
every guardrail warning as one ``warning: …`` line.  Each command checks its
outputs (their directories, and that none is the same file as an input or
another output) and its arguments before any work.  Options come from
defaults, then an optional ``--config`` file, then explicit flags.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from typing import NamedTuple, Optional

import numpy as np

from . import analysis, assembly, pointcloud
from .config import merged
from .kernel import PROFILE_NAMES, KernelParams, KernelProfile, eval_Rbar_t, get_profile
from .solve import SolveOptions, SolverError

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _err(msg: str) -> None:
    print(f"pim: error: {msg}", file=sys.stderr)


def _section(cfg: dict, name: str) -> dict:
    """The ``name.*`` keys of ``cfg``, as the keyword arguments they set."""
    return {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith(name + ".")}


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """Raise, before any work, ``open``'s error for an output in a missing
    directory, under a regular file or that is itself a directory, and a
    ValueError for an output that is the same file as another output or as an
    input.  Each dict maps a flag to its path, or to None when it is not given."""
    outputs = [(flag, path) for flag, path in outputs.items() if path]
    inputs = [(flag, path) for flag, path in inputs.items() if path]
    for i, (flag, path) in enumerate(outputs):
        try:    # the trailing separator makes a regular file fail as open would
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for other, other_path in outputs[i + 1:] + inputs:
            if os.path.realpath(path) == os.path.realpath(other_path) or (
                    os.path.exists(path) and os.path.exists(other_path)
                    and os.path.samefile(path, other_path)):
                raise ValueError(f"{flag} and {other} name the same file: {path!r}")


class Settings(NamedTuple):
    """Every config key as the object it sets, built once in ``main``: the one
    argument beside ``args`` that a command takes.  The fields are named as
    the studies' keywords, so ``pim sweep`` passes them through as they are."""

    profile: KernelProfile
    solver_options: SolveOptions
    coupling: analysis.Coupling
    dense_cutoff: int


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

# each shape flag: the one shape it applies to, its default and what it sets
_SHAPE_FLAGS = {"a": ("interval", 0.0, "left end"), "b": ("interval", 1.0, "right end"),
                "wx": ("rectangle", 1.0, "width"), "wy": ("rectangle", 1.0, "height"),
                "z0": ("spherical_cap", 0.5, "rim height")}


def _spec_from_args(args) -> pointcloud.ManifoldSpec:
    if args.seed is not None and not args.jitter:     # the seed draws only the jitter
        raise ValueError("--seed does not apply without --jitter")
    if args.seed is not None and args.seed < 0:       # numpy's error names neither flag nor value
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    v = {}
    for flag, (shape, default, _) in _SHAPE_FLAGS.items():
        value = getattr(args, flag)
        if value is not None and shape != args.shape:
            raise ValueError(f"--{flag} does not apply to --shape {args.shape}")
        v[flag] = default if value is None else value
    return pointcloud.ManifoldSpec(shape=args.shape, resolution=args.n, a=v["a"], b=v["b"],
                                   widths=(v["wx"], v["wy"]), z0=v["z0"])


def cmd_generate(args, settings: Settings) -> int:
    _check_outputs({"--out": args.out}, {"--config": args.config})
    cloud = pointcloud.generate(_spec_from_args(args), seed=args.seed or 0, jitter=args.jitter)
    pointcloud.save(cloud, args.out)
    print(f"wrote {cloud.n} points ({cloud.boundary_indices.size} boundary) "
          f"to {args.out}; h={cloud.metadata['h']:.6g}, "
          f"sum(V)={cloud.volume_weights.sum():.6g}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _read_values(path, const, expected: int, what: str) -> np.ndarray:
    """``expected`` values, one a line of file ``path``, or else all ``const`` (default 0)."""
    if not path:
        return np.full(expected, 0.0 if const is None else const)
    vals = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals.append(float(line.split(",")[-1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric {what} value") from None
    if len(vals) != expected:
        raise ValueError(f"{path}: expected {expected} {what} values, found {len(vals)}")
    return np.array(vals)


def cmd_solve(args, settings: Settings) -> int:
    report_path = args.report or (args.out + ".report.txt")
    _check_outputs({"--out": args.out, "--report": report_path, "--matrix-out": args.matrix_out},
                   {"--cloud": args.cloud, "--f-file": args.f_file, "--b-file": args.b_file,
                    "--config": args.config})
    if args.case is not None and (args.f_file or args.b_file or args.f_const is not None
                                  or args.b_const is not None):
        raise ValueError("give either --case or explicit f/b data, not both")
    if args.case is None and not args.f_file and args.f_const is None:
        raise ValueError("need --case, --f-file or --f-const")
    for name, path, const in (("f", args.f_file, args.f_const),
                              ("b", args.b_file, args.b_const)):
        if path and const is not None:
            raise ValueError(f"give either --{name}-file or --{name}-const, not both")
    case = None if args.case is None else analysis.get_case(args.case)
    try:
        cloud = pointcloud.load(args.cloud)
    except (OSError, pointcloud.CloudFormatError) as exc:
        raise ValueError(f"cannot read cloud: {exc}") from None

    if case is not None:
        if case.spec.ambient_dim != cloud.ambient_dim:
            raise ValueError(f"case {case.name} lives in {case.spec.ambient_dim}-d space, "
                             f"but the cloud's points are {cloud.ambient_dim}-d")
        fvals = case.f(cloud.points)
        bvals = case.b(cloud.boundary_points)
    else:
        fvals = _read_values(args.f_file, args.f_const, cloud.n, "source")
        bvals = _read_values(args.b_file, args.b_const, cloud.boundary_indices.size,
                             "boundary")

    h = pointcloud.fill_distance(cloud)
    if (args.t is None) != (args.beta is None):
        raise ValueError("--t and --beta must be given together (or both omitted "
                         "to derive them from the coupling rule)")
    if args.t is not None:
        t, beta = args.t, args.beta
    else:
        t = settings.coupling.t_of(h)
        beta = settings.coupling.beta_of(t)
    if not (0.0 < t < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"t and beta must be positive and finite, got t={t}, beta={beta}")

    flags = analysis.guardrail_flags(t, beta, h)
    report = analysis.solve_on_cloud(cloud, fvals, bvals, t, beta, settings.profile,
                                     settings.solver_options, settings.dense_cutoff,
                                     args.matrix_out)

    u = report.solution
    with open(args.out, "w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(cloud.ambient_dim)] + ["u"]) + "\n")
        fh.write(pointcloud._csv_rows(np.column_stack([cloud.points, u])))

    lines = {
        "command": "solve", "cloud": args.cloud, "n": cloud.n,
        "case": args.case or "(explicit data)",
        "profile": settings.profile.name, "h": _fmt(h), "t": _fmt(t), "beta": _fmt(beta),
        "method": report.method, "iterations": report.iterations,
        "residual": _fmt(report.residual_norm),
        "guardrail_flags": "; ".join(flags) if flags else "none",
    }
    if "preconditioner" in report.diagnostics:     # iterative solves
        lines["preconditioner"] = report.diagnostics["preconditioner"]
    if case is not None:
        exact = case.u(cloud.points)
        lines["max_abs_error_vs_exact"] = _fmt(float(np.max(np.abs(u - exact))))
    with open(report_path, "w") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")
    print(f"solved n={cloud.n} ({report.method}, {report.iterations} iterations), "
          f"residual={report.residual_norm:.3g}; solution -> {args.out}, "
          f"report -> {report_path}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args, settings: Settings) -> int:
    _check_outputs({"--out": args.out}, {"--config": args.config})
    case = analysis.get_case(args.case)
    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError:      # int's own error names neither the flag nor its syntax
        raise ValueError(f"--levels must be comma-separated integers, got {args.levels!r}") from None
    if not levels:
        raise ValueError("empty level list")
    try:
        result = analysis.convergence_sweep(case, levels, **settings._asdict())
    except analysis.SweepAborted as exc:
        try:
            exc.partial.to_csv(args.out)
            saved = f"partial results -> {args.out}"
        except OSError as write_exc:
            saved = f"partial results not written: {write_exc}"
        _err(f"{exc}; {saved}")
        return 1
    result.to_csv(args.out)
    print(result.csv_text(), end="")
    print(f"sweep complete: {len(result.rows)} level(s) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_checks(profile: KernelProfile) -> list[tuple[str, bool, str]]:
    from .operators import energy_identity, laplacian_matrix, oracle_Lt, oracle_v
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(7)

    # tail-kernel derivative: d/dr Rbar = -R, by central differences
    r = np.linspace(0.01, 0.97, 97)
    eps = 1e-6
    fd = (profile.terms(r + eps)[1] - profile.terms(r - eps)[1]) / (2.0 * eps)
    err = float(np.max(np.abs(fd + profile.terms(r)[0])))
    checks.append(("tail kernel derivative (FD)", err <= 1e-6, f"max|dRbar+R|={err:.2e}"))

    # two-point hand value, read from row 0 of the assembled L
    two = pointcloud.PointCloud(
        points=np.array([[0.0], [0.1]]), intrinsic_dim=1,
        boundary_indices=np.array([], dtype=int),
        volume_weights=np.array([0.5, 0.5]), area_weights=np.array([]))
    params2 = KernelParams(t=0.01, k=1)
    got = float((laplacian_matrix(two, params2, profile) @ np.array([1.0, 0.0]))[0])
    hand = (1.0 / 0.01) * (0.04 * math.pi) ** -0.5 \
        * float(profile.terms(0.25)[0]) * 0.5
    rel = abs(got - hand) / abs(hand)
    checks.append(("two-point Laplacian vs hand sum", rel <= 1e-12,
                   f"got={got:.6f}, rel={rel:.2e}"))

    # integral identity: L_t(y^2) at interior x equals -2 * integral of Rbar_t
    fine = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 4001))
    params = KernelParams(t=0.004, k=1)
    x = np.array([0.5])
    lhs = oracle_Lt(lambda Y: Y[:, 0] ** 2, x, fine, params, profile)
    rbar = eval_Rbar_t(x, fine.points, params, profile)
    rhs = -2.0 * float(np.sum(rbar * fine.volume_weights))
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    checks.append(("integral Laplacian identity (u=y^2)", rel <= 1e-5,
                   f"lhs={lhs:.8f}, rhs={rhs:.8f}, rel={rel:.2e}"))

    # smoothing average of u(y)=y around x=0.5 is 0.5 (symmetric window)
    dense = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 2001))
    pv = KernelParams(t=0.001, k=1)
    v = oracle_v(dense.points[:, 0], np.array([0.5]), dense, pv, profile)
    checks.append(("smoothed average (u=y at 0.5)", abs(v - 0.5) <= 1e-6,
                   f"v={v:.10f}"))

    # energy identity on a random field: the assembled L against a dense double sum
    small = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 101))
    ps = KernelParams(t=0.01, k=1)
    uu = rng.standard_normal(small.n)
    lhs_e, rhs_e = energy_identity(small, ps, profile, uu)
    rel = abs(lhs_e - rhs_e) / max(abs(rhs_e), 1e-30)
    checks.append(("energy identity (quadratic form)",
                   rel <= 1e-10 and rhs_e >= 0.0,
                   f"lhs={lhs_e:.10f}, rhs={rhs_e:.10f}, rel={rel:.2e}"))

    # assembled L approaches the integral, by a quadrature 8x finer, as h shrinks
    diffs = []
    for n in (101, 201):
        cl = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, n))
        fc = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 8 * (n - 1) + 1))
        uv = np.sin(math.pi * cl.points[:, 0])
        i_mid = n // 2
        disc = (laplacian_matrix(cl, params, profile) @ uv)[i_mid]
        orc = oracle_Lt(lambda Y: np.sin(math.pi * Y[:, 0]),
                        cl.points[i_mid], fc, params, profile)
        diffs.append(abs(disc - orc))
    checks.append(("discrete vs integral consistency",
                   diffs[1] < diffs[0],
                   f"|diff(h)|={diffs[0]:.3e} -> |diff(h/2)|={diffs[1]:.3e}"))

    # L kills constants, so A @ 1 is the boundary column (2/beta) sum_l Rbar_t(p_i, s_l) A_l
    disk = pointcloud.generate(pointcloud.ManifoldSpec.disk(300))
    pd, beta = KernelParams(t=0.03, k=2), 0.1
    a1 = assembly.assemble(disk, pd, profile, beta, np.zeros(disk.n),
                           np.zeros(disk.boundary_indices.size)).matrix @ np.ones(disk.n)
    rbar = eval_Rbar_t(disk.points[:, None, :], disk.boundary_points[None, :, :], pd, profile)
    g = (2.0 / beta) * (rbar @ disk.area_weights)
    rel = float(np.max(np.abs(a1 - g)) / np.max(np.abs(g)))
    checks.append(("assembled A @ 1 vs boundary column", rel <= 1e-10,
                   f"max|A1-g|/max|g|={rel:.2e}"))

    # interpolant gradient against central differences
    case = analysis.get_case("interval_sine")
    cl = pointcloud.generate(case.spec.with_resolution(101))
    t0 = 0.01
    interp, _ = analysis.solve_case_on_cloud(case, cl, t=t0, beta=0.1)
    xq = np.array([0.37])
    g = interp.grad(xq)[0]
    step = 1e-6 * math.sqrt(t0)
    fd = (interp.eval(xq + step) - interp.eval(xq - step)) / (2.0 * step)
    rel = abs(g - fd) / max(abs(fd), 1e-30)
    checks.append(("reconstruction gradient vs FD", rel <= 1e-5,
                   f"grad={g:.8f}, fd={fd:.8f}, rel={rel:.2e}"))
    return checks


def cmd_oracle_check(args, settings: Settings) -> int:
    checks = _oracle_checks(settings.profile)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    failures = sum(not ok for _, ok, _ in checks)
    print(f"{failures} failure(s) out of {len(checks)} checks")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pim",
        description="Meshless Poisson solver on point-cloud manifolds.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a built-in manifold to CSV")
    g.add_argument("--shape", required=True, choices=pointcloud.SHAPES)
    g.add_argument("--n", required=True, type=int, help="target point count")
    for flag, (shape, default, sets) in _SHAPE_FLAGS.items():
        g.add_argument(f"--{flag}", type=float, help=f"{shape} {sets} (default {default:g})")
    g.add_argument("--jitter", type=float, default=0.0,
                   help="interior perturbation, fraction of spacing in [0, 0.5)")
    g.add_argument("--seed", type=int,
                   help="seed of the jitter's draw, at least 0 (needs --jitter; default 0)")
    g.add_argument("--out", required=True, help="output cloud CSV path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one problem on a cloud file")
    s.add_argument("--cloud", required=True, help="input cloud CSV")
    s.add_argument("--case", help="built-in manufactured case name")
    s.add_argument("--f-file", help="file with one source value per point")
    s.add_argument("--f-const", type=float, help="constant source value")
    s.add_argument("--b-file", help="file with one boundary value per boundary point")
    s.add_argument("--b-const", type=float, help="constant boundary value")
    s.add_argument("--t", type=float, help="kernel bandwidth (with --beta)")
    s.add_argument("--beta", type=float, help="boundary penalty weight (with --t)")
    s.add_argument("--out", required=True, help="output solution CSV path")
    s.add_argument("--report", help="run report path (default: <out>.report.txt)")
    s.add_argument("--matrix-out", help="dump the matrix in MatrixMarket format")
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="multi-level convergence study")
    w.add_argument("--case", required=True, help="built-in case name")
    w.add_argument("--levels", required=True,
                   help="comma-separated resolutions, e.g. 101,201,401")
    w.add_argument("--out", required=True, help="output sweep CSV path")
    w.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle-check", help="run oracle comparisons")
    o.set_defaults(func=cmd_oracle_check)

    # a flag's dest is the config key it overrides
    for p in (s, w, o):
        p.add_argument("--profile", dest="kernel.profile", choices=PROFILE_NAMES,
                       help="kernel profile (config: kernel.profile)")
    for p in (s, w):
        p.add_argument("--tol", dest="solver.tol", type=float,
                       help="solver tolerance (config: solver.tol)")
        p.add_argument("--dense-cutoff", dest="assembly.dense_cutoff", type=int,
                       help="direct LU up to this many points, GMRES beyond "
                            "(config: assembly.dense_cutoff)")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overrides = {key: value for key, value in vars(args).items() if "." in key}
    with warnings.catch_warnings():
        # every guardrail flag, each time it trips, as one line on stderr
        warnings.filterwarnings("always", "stability guardrail")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            cfg = merged(args.config, overrides)
            settings = Settings(get_profile(cfg["kernel.profile"]),
                                SolveOptions(**_section(cfg, "solver")),
                                analysis.Coupling(**_section(cfg, "coupling")),
                                cfg["assembly.dense_cutoff"])
            if settings.dense_cutoff < 0:   # the one key no settings object checks
                raise ValueError(f"assembly.dense_cutoff must be at least 0, "
                                 f"got {settings.dense_cutoff}")
            return args.func(args, settings)
        except SolverError as exc:
            _err(f"solver failed: {exc}")
            return 1
        except (OSError, ValueError) as exc:    # ConfigError, CloudFormatError are ValueErrors
            _err(str(exc))
            return 2


if __name__ == "__main__":
    sys.exit(main())
