"""Open-loop Poisson load generation for the serving layer.

The PR 3 serving benchmark runs *closed-loop* clients: each client waits
for its answer before sending the next request.  Closed-loop load is
self-clocking -- when the server slows down, the clients slow down with
it -- so it systematically under-reports queueing delay and cannot
represent "traffic arrives at 2000 requests/second whether you are ready
or not".  That phenomenon (coordinated omission) is exactly what an SLO
evaluation must not hide.

This module drives **open-loop** load: request arrival times are drawn
from a Poisson process at a target rate *in advance*, and every request
is fired at its scheduled instant regardless of how many answers are
still outstanding.  Latency is measured from the request's *scheduled*
arrival time, not from when the generator got around to sending it, so
generator lateness (event-loop jitter at sub-millisecond inter-arrivals)
counts against the server's numbers, never in their favor.

Outcomes are bucketed per request: completed, rejected on overload
(:class:`~repro.serve.ServerOverloadedError`), shed on deadline
(:class:`~repro.serve.DeadlineExceededError`), or other error.  A run is
summarized by :class:`LoadResult`, whose ``sustains(slo_ms)`` predicate
is the benchmark's gate: p99 of completed requests within the SLO *and*
at least ``min_success`` of all issued requests answered.
"""

from __future__ import annotations

import asyncio
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Sequence

import numpy as np

from repro import DONN, DONNConfig
from repro.engine import compile as engine_compile
from repro.serve import DeadlineExceededError, ServerOverloadedError
from repro.utils import usable_cores

SubmitFn = Callable[[np.ndarray], Awaitable[np.ndarray]]


def run_metadata(seed: int) -> dict:
    """Reproducibility stamp for committed benchmark results.

    Every benchmark that draws a Poisson schedule records the seed it
    derived its generators from plus the host's core counts -- arrival
    jitter and multi-process scaling are both functions of those, so a
    results JSON without them cannot be re-run faithfully.
    """
    return {
        "seed": int(seed),
        "host_cores": os.cpu_count() or 1,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
    }


def build_session(sys_size: int, num_layers: int, *, batch_size: int, dtype: str = "complex128"):
    """The serving benches' model: a seeded linear DONN, compiled for the engine."""
    config = DONNConfig(
        sys_size=sys_size,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=num_layers,
        num_classes=10,
        seed=1,
    )
    return engine_compile(DONN(config), batch_size=batch_size, dtype=dtype)


def measure_capacity(session, *, batch: int, seed: int) -> float:
    """Images/sec of back-to-back fused calls at ``batch`` (the supply side).

    One warm-up call (FFT plans), then as many calls on one seeded
    uniform batch as fit in half a second.
    """
    images = np.random.default_rng(seed).uniform(size=(batch, *session.input_shape))
    session.run(images)  # warm FFT plans
    start = time.perf_counter()
    calls = 0
    while time.perf_counter() - start < 0.5:
        session.run(images)
        calls += 1
    return batch * calls / (time.perf_counter() - start)


@dataclass
class LoadResult:
    """Summary of one open-loop run at one target arrival rate."""

    target_rate: float
    duration_s: float
    offered: int
    completed: int
    rejected: int = 0
    deadline_missed: int = 0
    errors: int = 0
    #: Scheduled-arrival-to-completion latency of each *completed*
    #: request, milliseconds.
    latencies_ms: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def achieved_rate(self) -> float:
        """Completed requests per second over the run."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def success_rate(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    def percentile(self, q: float) -> float:
        if len(self.latencies_ms) == 0:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))

    def sustains(self, slo_ms: float, min_success: float = 0.99) -> bool:
        """Did the server hold the SLO at this arrival rate?

        True when the p99 latency of completed requests stays within
        ``slo_ms`` *and* at least ``min_success`` of issued requests were
        answered -- a policy may not "hold" an SLO by shedding traffic
        wholesale.
        """
        if self.completed == 0 or self.success_rate < min_success:
            return False
        return self.percentile(99) <= slo_ms

    def row(self) -> dict:
        """Flat JSON-friendly summary (for benchmark result files)."""
        return {
            "target_rate_rps": self.target_rate,
            "achieved_rate_rps": self.achieved_rate,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_missed": self.deadline_missed,
            "errors": self.errors,
            "success_rate": self.success_rate,
            "p50_latency_ms": self.percentile(50),
            "p95_latency_ms": self.percentile(95),
            "p99_latency_ms": self.percentile(99),
        }


def poisson_schedule(rate_rps: float, num_requests: int, rng: np.random.Generator) -> np.ndarray:
    """Cumulative arrival offsets (seconds) of a Poisson process.

    Inter-arrival gaps are i.i.d. exponential with mean ``1 / rate_rps``;
    the returned array is the running sum, starting at the first gap.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=num_requests))


def piecewise_poisson_schedule(
    segments: Sequence[tuple], rng: np.random.Generator
) -> np.ndarray:
    """Arrival offsets of a Poisson process whose rate changes over time.

    ``segments`` is ``[(rate_rps, duration_s), ...]``: within each
    segment arrivals are Poisson at that segment's rate, and the next
    segment starts where the previous one's time window ends (not at its
    last arrival), so the *shape* of the trace is deterministic even
    though the arrivals are random.  Segments produce however many
    arrivals land inside their window -- possibly zero.  This is the
    primitive behind :func:`step_schedule` and :func:`ramp_schedule`,
    the traces the autoscaler benchmark drives.
    """
    if not segments:
        raise ValueError("need at least one (rate_rps, duration_s) segment")
    offsets = []
    clock = 0.0
    for rate_rps, duration_s in segments:
        if rate_rps < 0 or duration_s <= 0:
            raise ValueError("segment rates must be >= 0 and durations > 0")
        if rate_rps > 0:
            # Draw with slack, keep what lands inside the window: the
            # expected count is rate * duration, and 4 sigma of headroom
            # makes a short draw (which would silently truncate the
            # segment) astronomically unlikely; top up if it happens.
            expect = rate_rps * duration_s
            size = int(expect + 4.0 * np.sqrt(expect) + 16)
            gaps = rng.exponential(1.0 / rate_rps, size=size)
            arrivals = np.cumsum(gaps)
            while arrivals[-1] < duration_s:  # pragma: no cover - 4-sigma tail
                more = rng.exponential(1.0 / rate_rps, size=size)
                arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(more)])
            offsets.append(clock + arrivals[arrivals < duration_s])
        clock += duration_s
    combined = np.concatenate(offsets) if offsets else np.empty(0)
    if len(combined) == 0:
        raise ValueError("schedule produced no arrivals (all-zero rates?)")
    return combined


def step_schedule(
    base_rps: float,
    peak_rps: float,
    rng: np.random.Generator,
    *,
    base_s: float = 2.0,
    peak_s: float = 4.0,
    tail_s: float = 2.0,
) -> np.ndarray:
    """A step-shaped trace: base load, a sudden sustained peak, base again.

    The canonical autoscaler workload -- the step up should trigger one
    scale-up (not a flap), the tail should let the loop shed the extra
    replicas back down.
    """
    return piecewise_poisson_schedule(
        [(base_rps, base_s), (peak_rps, peak_s), (base_rps, tail_s)], rng
    )


def ramp_schedule(
    start_rps: float,
    end_rps: float,
    duration_s: float,
    rng: np.random.Generator,
    *,
    steps: int = 8,
) -> np.ndarray:
    """A linear ramp from ``start_rps`` to ``end_rps`` over ``duration_s``.

    Discretized into ``steps`` equal-duration Poisson segments whose
    rates interpolate linearly (each segment pinned at its midpoint
    rate, so the trace's total expected arrivals match the continuous
    ramp).  A downward ramp (start > end) exercises gradual scale-down.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    rates = np.linspace(start_rps, end_rps, 2 * steps + 1)[1::2]  # segment midpoints
    return piecewise_poisson_schedule([(float(r), duration_s / steps) for r in rates], rng)


async def run_open_loop(
    submit: SubmitFn,
    payloads: Sequence[np.ndarray],
    rate_rps: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    offsets: Optional[np.ndarray] = None,
) -> LoadResult:
    """Fire ``payloads`` at Poisson arrival times; never wait for answers.

    ``submit`` is the per-request coroutine factory (e.g. ``lambda image:
    server.submit("model", image)``).  Requests are issued in scheduled
    order; when the event loop falls behind the schedule (sub-millisecond
    gaps), all overdue requests fire back-to-back -- the burst is part of
    the offered load, and their latency clocks still started at the
    scheduled instants.

    Arrival times come either from ``rate_rps`` + ``rng`` (a fresh
    constant-rate Poisson draw sized to ``payloads``) or from an explicit
    ``offsets`` array -- e.g. a :func:`step_schedule` /
    :func:`ramp_schedule` trace, in which case ``payloads`` must cover
    its length and the reported ``target_rate`` is the trace's mean rate.
    """
    if offsets is not None:
        if rate_rps is not None or rng is not None:
            raise ValueError("pass either offsets= or (rate_rps, rng), not both")
        offsets = np.asarray(offsets, dtype=float)
        if len(offsets) == 0:
            raise ValueError("offsets must be non-empty")
        if len(payloads) < len(offsets):
            raise ValueError(f"need {len(offsets)} payloads for the trace, got {len(payloads)}")
        rate_rps = len(offsets) / float(offsets[-1]) if offsets[-1] > 0 else float(len(offsets))
    else:
        if rate_rps is None or rng is None:
            raise ValueError("need (rate_rps, rng) when no offsets= trace is given")
        offsets = poisson_schedule(rate_rps, len(payloads), rng)
    loop = asyncio.get_running_loop()
    outcomes: List[asyncio.Task] = []
    start = loop.time()

    async def one(payload: np.ndarray, scheduled: float):
        try:
            await submit(payload)
        except ServerOverloadedError:
            return "rejected", 0.0
        except DeadlineExceededError:
            return "deadline", 0.0
        except Exception:
            return "error", 0.0
        return "ok", (loop.time() - scheduled) * 1000.0

    for payload, offset in zip(payloads, offsets):
        scheduled = start + offset
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcomes.append(loop.create_task(one(payload, scheduled)))

    results = await asyncio.gather(*outcomes)
    duration = loop.time() - start
    latencies = np.asarray([ms for status, ms in results if status == "ok"])
    counts = {status: sum(1 for s, _ in results if s == status) for status in ("ok", "rejected", "deadline", "error")}
    return LoadResult(
        target_rate=rate_rps,
        duration_s=duration,
        offered=len(payloads),
        completed=counts["ok"],
        rejected=counts["rejected"],
        deadline_missed=counts["deadline"],
        errors=counts["error"],
        latencies_ms=latencies,
    )
