#!/usr/bin/env python3
"""Self-test of the benchmark's own guarantees.

    python3 perfbench/selftest.py

Checks, printing one PASS/FAIL line each and exiting 1 if any fails:

1. Two traced runs with the same seed give identical counts
   (neighbors.pairs, assembly.nnz, solve.iterations, interpolate.queries,
   interpolate.support_pairs) on every workload.
2. Another seed changes neighbors.pairs.
3. The output checks count a corrupted solution as a failure: all-NaN, or
   one sample row perturbed by 1e-6 of max |u|, both for a solution CSV
   written by ``pim solve`` and for a library solve.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

import numpy as np  # noqa: E402
from spans import NullTracer  # noqa: E402

STABLE_COUNTS = ("neighbors.pairs", "assembly.nnz", "solve.iterations",
                 "interpolate.queries", "interpolate.support_pairs")
SEED, OTHER_SEED = 3, 4
TRACE_SECONDS = 1


def traced_counts(name, seed):
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(TRACE_SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in STABLE_COUNTS}


def rewrite_solution(path, u):
    """Write a solution CSV in pim solve's layout with the given u column."""
    with open(path) as fh:
        header = fh.readline()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[:, -1] = u
    with open(path, "w") as fh:
        fh.write(header)
        for row in data:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def counted_as_failure(workload, inputs, corrupt):
    """Run one op through the benchmark's tally with its output corrupted."""
    tally = run.Tally()
    run.timed(workload, inputs, tally, "corrupted op",
              lambda: corrupt(workload.run_op(inputs)),
              lambda result: workload.check(inputs, result))
    return tally.failed == 1 and not tally.errors


def corruption_checks(results):
    from workloads import WORKLOADS

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for name in ("dense-interval", "sweep-disk"):
            workload = WORKLOADS[name]()
            inputs = workload.make_inputs(SEED, workdir, NullTracer(), -1)

            if name == "dense-interval":
                def nan_out(rc):
                    rewrite_solution(inputs.out_csv, np.nan)
                    return rc

                def nudge(rc):
                    u = np.loadtxt(inputs.out_csv, delimiter=",", skiprows=1)[:, -1]
                    u[inputs.rows[0]] += 1e-6 * np.max(np.abs(u))
                    rewrite_solution(inputs.out_csv, u)
                    return rc
            else:
                def nan_out(result):
                    result[1].solution[:] = np.nan
                    return result

                def nudge(result):
                    u = result[1].solution
                    u[inputs.rows[0]] += 1e-6 * np.max(np.abs(u))
                    return result

            clean = run.Tally()
            run.timed(workload, inputs, clean, "clean op",
                      lambda: workload.run_op(inputs),
                      lambda result: workload.check(inputs, result))
            results.append((f"{name}: clean solution passes the checks",
                            clean.failed == 0))
            for label, corrupt in (("NaN solution", nan_out),
                                   ("one perturbed row", nudge)):
                results.append((f"{name}: {label} counted as a failure",
                                counted_as_failure(workload, inputs, corrupt)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    if not (run.SRC / "pim" / "__init__.py").is_file():
        print(f"selftest: no pim sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    results = []
    for name in WORKLOADS:
        first = traced_counts(name, SEED)
        again = traced_counts(name, SEED)
        other = traced_counts(name, OTHER_SEED)
        results.append((f"{name}: same seed, same counts {first}", first == again))
        results.append((f"{name}: seed {OTHER_SEED} changes neighbors.pairs "
                        f"({first['neighbors.pairs']} -> {other['neighbors.pairs']})",
                        first["neighbors.pairs"] != other["neighbors.pairs"]))
    corruption_checks(results)

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    failures = sum(not ok for _, ok in results)
    print(f"{failures} failure(s) out of {len(results)} checks")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
