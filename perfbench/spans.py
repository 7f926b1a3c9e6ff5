"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its own calls into pim's public
functions; nothing inside the library is instrumented.  Each span keeps its
name, start, end, parent span and op id.  The spans stay in memory until the
run ends and are then written out as one JSON file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name=name, op=op, start=time.perf_counter(), end=0.0,
                      parent=parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        Children of one span run one after another, so their durations add.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        own = self.self_times()
        records = [dict(asdict(s), id=i, self_s=own[i])
                   for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh, indent=1)
            fh.write("\n")


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    def span(self, name: str, op: int):
        return nullcontext()
