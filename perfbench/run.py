#!/usr/bin/env python3
"""Closed-loop benchmark of pim: one client, one process, one op at a time.

    python3 perfbench/run.py --workload solve-cap --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; pim is imported from ``src/``.  A run
builds its inputs from the seed (the set-up, timed as ``setup_s``, repeated
and reported as a median, then one warm-up op), then runs ops back to back
for ``--seconds`` and checks every op's output outside its timed region.

``--trace 0`` reports the end-to-end metrics.  ``op_s`` is the median op
time and ``setup_s`` the median set-up time, both in reference seconds: each
wall time is scaled by how fast a fixed probe ran just before and after it
(``speed.py``), which cancels the host's drifting CPU speed.

``--trace 1`` is a separate run that reports per-layer metrics: each
loop turn runs the op untraced, then traced with spans around the benchmark's
own calls into each layer, then a probe that times layers the op reaches only
from inside the library.  ``--workload all`` runs every workload in a fresh
process, one after another.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed op or check is counted in
``failed`` and makes the exit code 1; missing sources make it 2.
"""

import os

# Keep the process's parallelism to interpolate's own thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

SETUP_REPEATS = 3
BLOCK_S = 1.0  # ops run in blocks of at least this long between speed probes
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error": "abs"}

# span name -> per-layer metric; the value is the span's self time per op
LAYER_SPANS = {
    "pointcloud.generate": "pointcloud.generate_s",
    "pointcloud.load": "pointcloud.load_s",
    "pointcloud.fill_distance": "pointcloud.fill_distance_s",
    "neighbors.query_self": "neighbors.query_self_s",
    "assembly.assemble": "assembly.assemble_s",
    "solve.solve": "solve.solve_s",
    "interpolate.eval": "interpolate.eval_s",
    "interpolate.grad": "interpolate.grad_s",
    "analysis.l2_error": "analysis.l2_error_s",
    "analysis.h1_error": "analysis.h1_error_s",
    "analysis.boundary_l2_error": "analysis.boundary_l2_error_s",
    "cli.solve": "cli.solve_s",
}
# roots whose direct children are the layer calls of one traced op
REPLAY_ROOTS = ("op", "replay")

COUNT_UNITS = {
    "pointcloud.n": "count", "pointcloud.ref_n": "count",
    "neighbors.pairs": "count", "neighbors.per_row_min": "count",
    "neighbors.per_row_mean": "count", "neighbors.per_row_max": "count",
    "assembly.nnz": "count", "assembly.dense": "flag",
    "assembly.matrix_bytes": "bytes",
    "solve.iterations": "count", "solve.residual": "ratio",
    "interpolate.queries": "count", "interpolate.support_pairs": "count",
    "interpolate.dense_pairs": "count", "interpolate.support_ratio": "ratio",
}


class Tally:
    """Attempted and failed ops, and the error each passing op delivered."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, label, fn):
        """Call fn, count it as one attempt; return its value, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # an op or check failure is counted, never fatal
            self.failed += 1
            print(f"perfbench: {label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def timed(workload, inputs, tally, label, run, check):
    """Run one op, time it, check its output; returns (seconds, value) or (None, None)."""
    workload.prepare(inputs)

    def attempt():
        start = time.perf_counter()
        value = run()
        elapsed = time.perf_counter() - start
        tally.errors.append(check(value))
        return elapsed, value

    return tally.run(label, attempt) or (None, None)


def set_up(workload, seed, workdir, tracer, tally, probe=None):
    """Build the inputs and warm up with one checked op, SETUP_REPEATS times.

    Returns the inputs and the median time of one build-plus-warm-up, in
    reference seconds when a speed probe is given, else in wall seconds.
    """
    times = []
    before = probe() if probe else None
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir, tracer, -1 - rep)
        timed(workload, inputs, tally, f"warm-up op {rep}",
              lambda: workload.run_op(inputs),
              lambda result: workload.check(inputs, result))
        elapsed = time.perf_counter() - start
        if probe:
            after = probe()
            elapsed *= speed.scale(before, after)
            before = after
        times.append(elapsed)
    return inputs, statistics.median(times)


def spread(xs):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    for permille in (999, 990, 950, 900, 750, 500):
        if len(xs) * (1000 - permille) / 1000.0 >= 10:
            return permille / 10.0, statistics.quantiles(xs, n=1000)[permille - 1]
    return None


def describe_samples(xs):
    q1, q2, q3 = spread(xs)
    text = f"median {q2:.6f} s  n={len(xs)}  q1={q1:.6f}  q3={q3:.6f}"
    hi = tail(xs)
    if hi is None:
        return text + "  (no percentile has 10 samples beyond it)"
    return text + f"  p{hi[0]:g}={hi[1]:.6f}"


def run_untraced(workload, seed, seconds, workdir):
    tally = Tally()
    samples, wall = [], []
    with speed.SpeedProbe() as probe:
        inputs, setup_s = set_up(workload, seed, workdir, NullTracer(), tally, probe)
        deadline = time.perf_counter() + seconds
        before = probe()
        while time.perf_counter() < deadline:
            block = []
            block_end = min(time.perf_counter() + BLOCK_S, deadline)
            while True:
                elapsed, _ = timed(workload, inputs, tally, f"op {tally.attempted}",
                                   lambda: workload.run_op(inputs),
                                   lambda rc: workload.check(inputs, rc))
                if elapsed is not None:
                    block.append(elapsed)
                if time.perf_counter() >= block_end:
                    break
            after = probe()
            factor = speed.scale(before, after)
            samples.extend(e * factor for e in block)
            wall.extend(block)
            before = after

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {workload.name}: {workload.op}")
    if samples:
        print(f"  op_s         {describe_samples(samples)}  (reference seconds)")
        print(f"  op wall      {describe_samples(wall)}  (not normalised)")
    print(f"  setup_s      {setup_s:.6f} s  (reference seconds; median of {SETUP_REPEATS} "
          f"input builds, each with one warm-up op)")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB")
    if tally.errors:
        print(f"  error        {statistics.median(tally.errors):.6g}  "
              f"({workload.error_meaning}; tolerance {workload.tolerance:g})")
    print(f"  fail_frac    {tally.failed / tally.attempted:g} ratio  "
          f"({tally.failed} of {tally.attempted} ops)")
    values = {
        "op_s": statistics.median(samples) if samples else None,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "error": statistics.median(tally.errors) if tally.errors else None,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return tally, metrics


def layer_metrics(tracer, traced_by_op):
    """Median over ops of each layer's self time, plus layer coverage."""
    own = tracer.self_times()
    per_op = {}
    for i, span in enumerate(tracer.spans):
        per_op.setdefault(span.op, {}).setdefault(span.name, 0.0)
        per_op[span.op][span.name] += own[i]
    setup_ops = [op for op in per_op if op < 0]
    loop_ops = [op for op in per_op if op >= 0 and op in traced_by_op]
    out = {}
    for name, metric in LAYER_SPANS.items():
        ops = setup_ops if name == "pointcloud.generate" else loop_ops
        vals = [per_op[op].get(name, 0.0) for op in ops]
        out[metric] = statistics.median(vals) if vals else 0.0

    covered = {}
    for i, span in enumerate(tracer.spans):
        parent = span.parent
        if parent is not None and tracer.spans[parent].name in REPLAY_ROOTS \
                and span.name in LAYER_SPANS:
            covered[span.op] = covered.get(span.op, 0.0) + own[i]
    fracs = [covered.get(op, 0.0) / traced_by_op[op] for op in loop_ops]
    out["trace.layer_sum_frac"] = statistics.median(fracs) if fracs else 0.0
    # the CLI's own work (argument parsing, solution and report writing):
    # the whole cli.main call minus the replayed layer calls of the same turn
    own = [per_op[op]["cli.solve"] - covered.get(op, 0.0)
           for op in loop_ops if "cli.solve" in per_op[op]]
    out["cli.own_s"] = statistics.median(own) if own else 0.0
    return out


def run_traced(workload, seed, seconds, workdir, trace_path):
    from workloads import layer_counts
    tracer = Tracer()
    tally = Tally()
    inputs, _ = set_up(workload, seed, workdir, tracer, tally)
    plain, traced_by_op, counts = [], {}, {}
    op = 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, _ = timed(workload, inputs, tally, f"untraced op {op}",
                           lambda: workload.run_op(inputs),
                           lambda rc: workload.check(inputs, rc))
        if elapsed is not None:
            plain.append(elapsed)
        elapsed, out = timed(workload, inputs, tally, f"traced op {op}",
                             lambda: workload.traced_op(inputs, tracer, op),
                             lambda res: workload.check(inputs, res[0]))
        if elapsed is not None:
            traced_by_op[op] = elapsed
            layers = out[1]
            if layers is None:
                layers = tally.run(f"replay {op}", lambda: workload.replay(inputs, tracer, op))
            if layers is not None:
                found = tally.run(f"probe {op}",
                                  lambda: workload.probe(inputs, layers, tracer, op))
                if found is not None:
                    counts.update(found)
                    counts.update(layer_counts(layers))
        op += 1
        if time.perf_counter() >= deadline:
            break

    counts.update(workload.interpolate_counts(inputs))
    counts["pointcloud.n"] = inputs.cloud.n
    counts["pointcloud.ref_n"] = inputs.ref.n if inputs.ref is not None else 0
    values = layer_metrics(tracer, traced_by_op)
    traced = list(traced_by_op.values())
    values["trace.op_s"] = statistics.median(traced) if traced else None
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                  if traced and plain else None)
    tracer.write(trace_path)

    print(f"workload {workload.name} (traced): {len(traced)} traced ops, "
          f"{len(plain)} untraced; spans -> {trace_path.relative_to(ROOT)}")
    metrics = {}
    for name, value in values.items():
        unit = "ratio" if name == "trace.layer_sum_frac" else "s"
        metrics[name] = {"value": value, "unit": unit}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": counts.get(name), "unit": unit}
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']!r} {m['unit']}")
    return tally, metrics


def run_one(args):
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        if args.trace:
            TRACES.mkdir(exist_ok=True)
            trace_path = TRACES / f"{workload.name}-seed{args.seed}.json"
            tally, metrics = run_traced(workload, args.seed, args.seconds, workdir,
                                        trace_path)
        else:
            tally, metrics = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after another; one summary."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve-cap, sweep-disk, dense-interval, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the op loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pim" / "__init__.py").is_file():
        print(f"perfbench: no pim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
