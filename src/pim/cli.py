"""Command-line driver: generate clouds, solve cases, run sweeps and checks.

Subcommands
-----------
generate      sample a built-in manifold and write the cloud CSV
solve         assemble + solve one problem on a cloud file, write solution CSV
sweep         multi-level convergence study for a built-in case, write CSV
oracle-check  run the operator/kernel oracle comparisons, print a table

Exit codes: 0 success, 1 solver or oracle failure, 2 configuration, parse
or validation errors.  Options come from defaults, then an optional
``--config`` file (flat ``key = value`` lines), then explicit flags.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import NamedTuple, Optional

import numpy as np

from . import analysis, assembly, interpolate, pointcloud
from .config import merged
from .kernel import PROFILE_NAMES, KernelParams, KernelProfile, get_profile
from .solve import SolveOptions, SolverError, solve as run_solve

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(table: np.ndarray) -> str:
    """The rows of ``table`` as CSV lines of ``_fmt`` cells, in one %-format."""
    n, c = table.shape
    return (",".join(["%.17g"] * c) + "\n") * n % tuple(table.ravel().tolist())


def _err(msg: str) -> None:
    print(f"pim: error: {msg}", file=sys.stderr)


def _section(cfg: dict, name: str) -> dict:
    """The ``name.*`` keys of ``cfg``, as the keyword arguments they set."""
    return {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith(name + ".")}


class Settings(NamedTuple):
    """Built from the merged config, once, in ``main``; named as the studies' keywords."""

    profile: KernelProfile
    solver_options: SolveOptions
    coupling: analysis.Coupling
    guardrails: analysis.Guardrails


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _spec_from_args(args) -> pointcloud.ManifoldSpec:
    if args.shape == "interval":
        return pointcloud.ManifoldSpec.interval(args.a, args.b, args.n)
    if args.shape == "rectangle":
        return pointcloud.ManifoldSpec.rectangle(args.wx, args.wy, args.n)
    if args.shape == "disk":
        return pointcloud.ManifoldSpec.disk(args.n)
    return pointcloud.ManifoldSpec.spherical_cap(args.z0, args.n)


def cmd_generate(args, cfg: dict, settings: Settings) -> int:
    try:
        spec = _spec_from_args(args)
        cloud = pointcloud.generate(spec, seed=args.seed, jitter=args.jitter)
    except ValueError as exc:
        _err(str(exc))
        return 2
    try:
        pointcloud.save(cloud, args.out)
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return 2
    print(f"wrote {cloud.n} points ({cloud.boundary_indices.size} boundary) "
          f"to {args.out}; h={cloud.metadata['h']:.6g}, "
          f"sum(V)={cloud.volume_weights.sum():.6g}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _read_values(path, expected: int, what: str) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals.append(float(line.split(",")[-1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric {what} value") from None
    arr = np.array(vals)
    if arr.shape[0] != expected:
        raise ValueError(
            f"{path}: expected {expected} {what} values, found {arr.shape[0]}")
    return arr


def cmd_solve(args, cfg: dict, settings: Settings) -> int:
    try:
        cloud = pointcloud.load(args.cloud)
    except (OSError, pointcloud.CloudFormatError) as exc:
        _err(f"cannot read cloud: {exc}")
        return 2

    case = None
    if args.case is not None:
        if args.f_file or args.b_file or args.f_const is not None or args.b_const is not None:
            _err("give either --case or explicit f/b data, not both")
            return 2
        try:
            case = analysis.get_case(args.case)
        except ValueError as exc:
            _err(str(exc))
            return 2
        if case.spec.ambient_dim != cloud.ambient_dim:
            _err(f"case {case.name} lives in {case.spec.ambient_dim}-d space, "
                 f"but the cloud's points are {cloud.ambient_dim}-d")
            return 2
        fvals = case.f(cloud.points)
        bvals = case.b(cloud.boundary_points)
    else:
        try:
            if args.f_file:
                fvals = _read_values(args.f_file, cloud.n, "source")
            elif args.f_const is not None:
                fvals = np.full(cloud.n, args.f_const)
            else:
                _err("need --case, --f-file or --f-const")
                return 2
            m = cloud.boundary_indices.size
            if args.b_file:
                bvals = _read_values(args.b_file, m, "boundary")
            elif args.b_const is not None:
                bvals = np.full(m, args.b_const)
            else:
                bvals = np.zeros(m)
        except (OSError, ValueError) as exc:
            _err(str(exc))
            return 2

    h = cloud.metadata.get("h") or pointcloud.fill_distance(cloud)
    if (args.t is None) != (args.beta is None):
        _err("--t and --beta must be given together (or both omitted "
             "to derive them from the coupling rule)")
        return 2
    if args.t is not None:
        t, beta = args.t, args.beta
    else:
        t = settings.coupling.t_of(h)
        beta = settings.coupling.beta_of(t)
    if not (0.0 < t < math.inf and 0.0 < beta < math.inf):
        _err(f"t and beta must be positive and finite, got t={t}, beta={beta}")
        return 2

    params = KernelParams(t=t, k=cloud.intrinsic_dim)
    flags = settings.guardrails.check(t, beta, h, warn=False)
    for flag in flags:
        print(f"warning: stability guardrail exceeded: {flag}", file=sys.stderr)

    try:
        system = assembly.assemble(cloud, params, settings.profile, beta, fvals, bvals,
                                   dense_cutoff=cfg["assembly.dense_cutoff"])
    except ValueError as exc:
        _err(str(exc))
        return 2
    if args.matrix_out:
        assembly.dump_matrixmarket(system, args.matrix_out)
    try:
        report = run_solve(system, settings.solver_options)
    except ValueError as exc:
        _err(str(exc))
        return 2
    except SolverError as exc:
        _err(f"solver failed: {exc}")
        return 1

    u = report.solution
    d = cloud.ambient_dim
    try:
        with open(args.out, "w") as fh:
            fh.write(",".join([f"x{i + 1}" for i in range(d)] + ["u"]) + "\n")
            fh.write(_csv_rows(np.column_stack([cloud.points, u])))
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return 2

    lines = {
        "command": "solve", "cloud": args.cloud, "n": cloud.n,
        "case": args.case or "(explicit data)",
        "profile": settings.profile.name, "h": _fmt(h), "t": _fmt(t), "beta": _fmt(beta),
        "method": report.method, "iterations": report.iterations,
        "residual": _fmt(report.residual_norm),
        "guardrail_flags": "; ".join(flags) if flags else "none",
    }
    if case is not None:
        exact = case.u(cloud.points)
        lines["max_abs_error_vs_exact"] = _fmt(float(np.max(np.abs(u - exact))))
    report_path = args.report or (args.out + ".report.txt")
    try:
        with open(report_path, "w") as fh:
            for key, value in lines.items():
                fh.write(f"{key} = {value}\n")
    except OSError as exc:
        _err(f"cannot write {report_path}: {exc}")
        return 2
    print(f"solved n={cloud.n} ({report.method}, {report.iterations} iterations), "
          f"residual={report.residual_norm:.3g}; solution -> {args.out}, "
          f"report -> {report_path}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args, cfg: dict, settings: Settings) -> int:
    try:
        case = analysis.get_case(args.case)
        levels = [int(tok) for tok in args.levels.split(",") if tok.strip()]
        if not levels:
            raise ValueError("empty level list")
    except ValueError as exc:
        _err(str(exc))
        return 2

    try:
        with warnings.catch_warnings():
            # each level's guardrail warnings as they come, in pim solve's format
            warnings.filterwarnings("always", "stability guardrail")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            result = analysis.convergence_sweep(
                case, levels, **settings._asdict(),
                reference_factor=cfg["reference.factor"],
                dense_cutoff=cfg["assembly.dense_cutoff"],
                seed=args.seed,
            )
    except analysis.SweepAborted as exc:
        exc.partial.to_csv(args.out)
        _err(f"{exc}; partial results -> {args.out}")
        return 1
    except ValueError as exc:
        _err(str(exc))
        return 2
    result.to_csv(args.out)
    print(result.csv_text(), end="")
    print(f"sweep complete: {len(result.rows)} level(s) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_checks(cfg: dict, profile: KernelProfile) -> list[tuple[str, bool, str]]:
    from .operators import apply_Lth, energy_identity, oracle_Lt, oracle_v
    fineness = cfg["oracle.fineness"]
    if fineness < 1:
        raise ValueError(f"oracle.fineness must be at least 1, got {fineness}")
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(7)

    # tail-kernel derivative: d/dr Rbar = -R, by central differences
    r = np.linspace(0.01, 0.97, 97)
    eps = 1e-6
    fd = (profile.Rbar(r + eps) - profile.Rbar(r - eps)) / (2.0 * eps)
    err = float(np.max(np.abs(fd + profile.R(r))))
    checks.append(("tail kernel derivative (FD)", err <= 1e-6, f"max|dRbar+R|={err:.2e}"))

    # two-point hand value
    two = pointcloud.PointCloud(
        points=np.array([[0.0], [0.1]]), intrinsic_dim=1,
        boundary_indices=np.array([], dtype=int),
        volume_weights=np.array([0.5, 0.5]), area_weights=np.array([]))
    params2 = KernelParams(t=0.01, k=1)
    got = apply_Lth(two, params2, profile, np.array([1.0, 0.0]), 0)
    hand = (1.0 / 0.01) * (0.04 * math.pi) ** -0.5 \
        * float(profile.R(np.array([0.25]))[0]) * 0.5
    rel = abs(got - hand) / abs(hand)
    checks.append(("two-point Laplacian vs hand sum", rel <= 1e-12,
                   f"got={got:.6f}, rel={rel:.2e}"))

    # integral identity: L_t(y^2) at interior x equals -2 * integral of Rbar_t
    fine = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 4001))
    params = KernelParams(t=0.004, k=1)
    x = np.array([0.5])
    lhs = oracle_Lt(lambda Y: Y[:, 0] ** 2, x, fine, params, profile)
    from .kernel import eval_Rbar_t
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

    # energy identity on a random field
    small = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, 101))
    ps = KernelParams(t=0.01, k=1)
    uu = rng.standard_normal(small.n)
    lhs_e, rhs_e = energy_identity(small, ps, profile, uu)
    rel = abs(lhs_e - rhs_e) / max(abs(rhs_e), 1e-30)
    checks.append(("energy identity (quadratic form)",
                   rel <= 1e-10 and rhs_e >= 0.0,
                   f"lhs={lhs_e:.10f}, rhs={rhs_e:.10f}, rel={rel:.2e}"))

    # discrete operator approaches the fine-quadrature integral as h shrinks
    diffs = []
    for n in (101, 201):
        cl = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, n))
        fine_n = fineness * (n - 1) + 1
        fc = pointcloud.generate(pointcloud.ManifoldSpec.interval(0.0, 1.0, fine_n))
        uv = np.sin(math.pi * cl.points[:, 0])
        i_mid = n // 2
        disc = apply_Lth(cl, params, profile, uv, i_mid)
        orc = oracle_Lt(lambda Y: np.sin(math.pi * Y[:, 0]),
                        cl.points[i_mid], fc, params, profile)
        diffs.append(abs(disc - orc))
    checks.append(("discrete vs integral consistency",
                   diffs[1] < diffs[0],
                   f"|diff(h)|={diffs[0]:.3e} -> |diff(h/2)|={diffs[1]:.3e}"))

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


def cmd_oracle_check(args, cfg: dict, settings: Settings) -> int:
    try:
        checks = _oracle_checks(cfg, settings.profile)
    except ValueError as exc:
        _err(str(exc))
        return 2
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{name:<{width}}  {status}  {detail}")
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
    g.add_argument("--a", type=float, default=0.0, help="interval left end")
    g.add_argument("--b", type=float, default=1.0, help="interval right end")
    g.add_argument("--wx", type=float, default=1.0, help="rectangle width")
    g.add_argument("--wy", type=float, default=1.0, help="rectangle height")
    g.add_argument("--z0", type=float, default=0.5, help="cap rim height")
    g.add_argument("--jitter", type=float, default=0.0,
                   help="interior perturbation, fraction of spacing in [0, 0.5)")
    g.add_argument("--seed", type=int, default=0)
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
    w.add_argument("--seed", type=int, default=0)
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
                       help="dense/sparse switch (config: assembly.dense_cutoff)")
        for key in ("c_t", "c_beta", "gamma_t"):
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"coupling.{key}",
                           type=float, help=f"coupling constant (config: coupling.{key})")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overrides = {key: value for key, value in vars(args).items() if "." in key}
    try:
        cfg = merged(args.config, overrides)
        settings = Settings(get_profile(cfg["kernel.profile"]),
                            SolveOptions(**_section(cfg, "solver")),
                            analysis.Coupling(**_section(cfg, "coupling")),
                            analysis.Guardrails(**_section(cfg, "guardrails")))
    except (OSError, ValueError) as exc:    # ConfigError is a ValueError
        _err(str(exc))
        return 2
    return args.func(args, cfg, settings)


if __name__ == "__main__":
    sys.exit(main())
