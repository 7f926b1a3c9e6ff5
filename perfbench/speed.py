"""Machine-speed reference for the untraced run's timings.

On a shared host the CPU speed one process sees drifts by tens of percent
over seconds to minutes, because other tenants share the cores, caches and
memory bus.  The drift scales every op of a run alike, so it moves a run's
median op time as much as a real regression would.

``SpeedProbe`` times a fixed piece of reference work that does not call pim,
with the shape of pim's assembly loop: a Python loop of small numpy
operations over neighbour lists, once on a cache-sized cloud and once
gathering rows at random from a cloud larger than the caches, then a loop of
plain Python arithmetic.  It runs on one thread.  In trials on such a host,
adding a half of dense kernel sums on two threads (the shape of pim's
reconstruction) made the probe slow down more than the single-threaded ops
in busy stretches, and did not steady the threaded workload either.  The
work runs in a child process, started once per run and idle while an op
runs, so its memory stays out of the benchmark process's peak RSS.

The run calls the probe between blocks of ops, and a block's op times are
scaled by ``REF_S / probe time``, the probe time being the mean of the probes
just before and after the block.  A timing reported so reads as seconds on a
machine where the probe takes ``REF_S``.  A change to pim moves the ops and
not the probe, so it shows in full; a slow stretch of the machine moves both
and cancels.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy.spatial import cKDTree

# The probe's median time when run alone on the machine the bounds were set
# on (a shared 2-vCPU Intel Xeon); it fixes the scale of the reported seconds
# only.
REF_S = 0.15

_SMALL_POINTS = 4000
_LARGE_POINTS = 200_000
_ROWS = 300
_RADIUS = 0.3
_LARGE_ROW_LEN = 400
_SMALL_PASSES = 4
_LARGE_PASSES = 3
_PY_STEPS = 400_000


def _row_loop(points, values, lists, passes):
    acc = 0.0
    for _ in range(passes):
        for i, cand in enumerate(lists):
            diff = points[cand] - points[i]
            s = np.einsum("ij,ij->i", diff, diff) * 20.0
            keep = s < 1.0
            nbr = cand[keep]
            acc += float(np.sum(np.exp(-s[keep]) * values[nbr]))
            acc += float(np.searchsorted(nbr, i))
    return acc


class ReferenceWork:
    """Fixed reference work; calling it returns the seconds one pass took."""

    def __init__(self):
        rng = np.random.default_rng(20131217)
        self.small = rng.random((_SMALL_POINTS, 3))
        self.small_values = rng.random(_SMALL_POINTS)
        tree = cKDTree(self.small)
        self.small_lists = [np.array(sorted(nbr), dtype=np.intp)
                            for nbr in tree.query_ball_point(self.small[:_ROWS], _RADIUS)]
        self.large = rng.random((_LARGE_POINTS, 3))
        self.large_values = rng.random(_LARGE_POINTS)
        self.large_lists = [np.sort(rng.choice(_LARGE_POINTS, _LARGE_ROW_LEN, replace=False))
                            for _ in range(_ROWS)]
        self.sink = 0.0
        self()  # first pass warms caches and lazy imports

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = _row_loop(self.small, self.small_values, self.small_lists, _SMALL_PASSES)
        acc += _row_loop(self.large, self.large_values, self.large_lists, _LARGE_PASSES)
        steps = 0
        for i in range(_PY_STEPS):
            steps += (i * 7) % 13
        self.sink = acc + steps
        return time.perf_counter() - start


class SpeedProbe:
    """ReferenceWork in a child process; calling it returns one pass's seconds.

    Use it as a context manager: leaving the block ends the child and waits
    for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self()  # returns once the child has built its data and warmed up

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()  # end of input ends the child's loop
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(before: float, after: float) -> float:
    """Factor that turns a block's wall times into reference seconds."""
    return REF_S / ((before + after) / 2.0)


def main() -> None:
    """Child side: one pass of the reference work per input line."""
    work = ReferenceWork()
    for _ in sys.stdin:
        print(repr(work()), flush=True)


if __name__ == "__main__":
    main()
