"""Shared pieces of the benchmark: spans, statistics, host facts, results.

The benchmark's tracing lives here, outside the program under test.  A
:class:`Tracer` records spans (name, start, end, parent, run id) around
calls the benchmark makes into each layer's public functions, keeps them
in memory and writes them out once, when the run ends.  A layer's *self
time* is its span minus the part of that span its child spans cover.
Untraced runs build no tracer at all, so they pay nothing for it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Where a run keeps scratch state (temporary model stores, span dumps).
#: Relative to the checkout the benchmark runs from; ignored by git.
WORK_DIR = Path(".perfbench")
#: Outputs must equal their reference to this absolute tolerance.
PARITY_ATOL = 1e-10


def now() -> float:
    """The benchmark's one clock.  ``perf_counter`` is CLOCK_MONOTONIC on
    Linux, which every process on the host shares, so spans recorded in
    the server process line up with spans recorded by the generator."""
    return time.perf_counter()


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: str
    parent: Optional[str]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.span_id, self.parent, self.run_id]

    @classmethod
    def from_row(cls, row: Sequence) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span recorder for one run (one per process).

    Span ids carry the process id, so spans from the generator and the
    server process can be merged into one tree.  The parent of a new span
    is the innermost open span of the current thread or asyncio task,
    unless the caller names one (an id that crossed a process boundary).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}-"
        self._current: contextvars.ContextVar = contextvars.ContextVar(f"perfbench_span_{id(self)}", default=None)

    def new_id(self) -> str:
        return self._prefix + str(next(self._ids))

    @contextmanager
    def span(self, name: str, *, parent: Optional[str] = None, start: Optional[float] = None):
        """Time the ``with`` body as span ``name``; yields the span id.

        ``start`` back-dates the span (an open-loop request is clocked
        from its scheduled send time, not from when it was sent).
        """
        span_id = self.new_id()
        parent = parent if parent is not None else self._current.get()
        token = self._current.set(span_id)
        began = now() if start is None else start
        try:
            yield span_id
        finally:
            self._current.reset(token)
            self.spans.append(Span(name, began, now(), span_id, parent, self.run_id))

    def record(self, name: str, start: float, end: float, parent: Optional[str] = None) -> None:
        """Add a span measured elsewhere (e.g. compute time a worker reports)."""
        self.spans.append(Span(name, start, end, self.new_id(), parent, self.run_id))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            with self.span(name):
                return await fn(*args, **kwargs)

        return traced


def _covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total, reach = 0.0, start
    for s, e in clipped:
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def children_of(spans: Sequence[Span], adopted: Optional[Dict[str, List[Span]]] = None) -> Dict[str, List[Span]]:
    """Span id -> its child spans: those naming it as parent, plus any
    ``adopted`` ones (a batch that answered a request cannot name the
    request as parent, because one batch serves several)."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for span_id, kids in (adopted or {}).items():
        children.setdefault(span_id, []).extend(kids)
    return children


def self_times(spans: Sequence[Span], children: Dict[str, List[Span]]) -> Dict[str, float]:
    """Self time (seconds) of every span, by span id."""
    return {
        span.span_id: span.duration
        - _covered(span.start, span.end, ((kid.start, kid.end) for kid in children.get(span.span_id, ())))
        for span in spans
    }


def write_spans(path: Path, run_id: str, spans: Sequence[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [span.as_row() for span in spans]
    fields = ["name", "start", "end", "id", "parent", "run_id"]
    path.write_text(json.dumps({"run_id": run_id, "fields": fields, "spans": rows}))


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def time_calls(fn: Callable[[], object], reps: int) -> List[float]:
    """Wall seconds of ``reps`` back-to-back calls of ``fn``."""
    return time_builds(fn, reps)[0]


def time_builds(build: Callable[[], object], reps: int):
    """Run ``build`` ``reps`` times; returns (seconds per run, last result)."""
    times, built = [], None
    for _ in range(reps):
        start = now()
        built = build()
        times.append(now() - start)
    return times, built


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, MB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_metadata() -> dict:
    import scipy

    from loadgen import usable_cores

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "host_cores": os.cpu_count() or 1,
        "usable_cores": usable_cores(),
    }
