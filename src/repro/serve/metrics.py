"""Per-request serving telemetry: sliding-window percentiles + counters.

Throughput alone cannot tell you whether a serving configuration is
*good*: dynamic batching trades per-request latency for fusion, so the
interesting numbers are the latency percentiles (p50/p95/p99), where the
time went (queueing vs compute), and how much work was refused (overload
rejections, deadline misses).  This module holds those numbers.

Two pieces:

* :class:`PercentileWindow` -- a fixed-capacity ring buffer of recent
  observations with percentile/mean queries, plus the lifetime count and
  sum of everything it has seen.  A *sliding* window rather than an
  all-time distribution: serving telemetry should answer "how is the
  server doing *now*", and a long-gone warm-up spike must age out.
* :class:`BatcherStats` -- the per-batcher telemetry object
  (:meth:`DynamicBatcher.stats` returns it; ``InferenceServer.stats()``
  returns one per model).  Plain counters plus three windows: end-to-end
  request latency, queue wait (arrival to batch start) and engine compute
  time.  ``queue_wait + compute`` accounts for essentially the whole
  request latency, so the breakdown tells you whether to tune the policy
  (queue-dominated) or the engine (compute-dominated).

Each latency is recorded once, into its window, and every reader takes
it from there: ``/v1/stats`` (:meth:`BatcherStats.as_dict`), the
autoscaler's ``p99_latency_ms`` and the ``GET /metrics`` summaries.
The p99 an operator scrapes is the p99 the autoscaler acts on.

Thread/async-safety: all mutation happens on the batcher's event loop
(single worker task), so no locking is needed; reading a snapshot from
another thread sees a consistent-enough view for monitoring.  Sorting
happens at *query* time -- recording an observation is O(1) and
allocation-free after warm-up.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

#: Default number of recent requests a sliding window remembers.  Big
#: enough that a p99 over it is meaningful (>= several hundred samples),
#: small enough that stale traffic ages out quickly.
DEFAULT_WINDOW = 1024


class PercentileWindow:
    """Sliding window over the last ``capacity`` float observations.

    ``record`` is O(1) (ring-buffer overwrite) and drops non-finite
    values, so neither the window nor the lifetime ``sum`` can carry NaN;
    ``quantiles``/``mean`` are O(window) at query time.  Percentiles over
    an empty window return ``nan`` rather than raising, so snapshot code
    never needs guards.  ``total_recorded`` and ``sum`` cover every
    observation ever recorded, not just the window.

    >>> window = PercentileWindow(capacity=4)
    >>> for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
    ...     window.record(value)
    >>> len(window)            # the 1.0 has aged out
    4
    >>> window.percentile(50)  # median of [2, 3, 4, 100]
    3.5
    >>> window.total_recorded, window.sum
    (5, 110.0)
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._buffer = np.empty(self.capacity, dtype=float)
        self._count = 0  # total observations ever recorded
        self._sum = 0.0  # and their total
        self._next = 0   # ring-buffer write cursor

    def record(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self._buffer[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._count += 1
        self._sum += value

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def total_recorded(self) -> int:
        """All-time observation count (window length caps at capacity)."""
        return self._count

    @property
    def sum(self) -> float:
        """All-time sum of the recorded observations."""
        return self._sum

    def _values(self) -> np.ndarray:
        return self._buffer[: len(self)]

    def percentile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    def quantiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """Several percentiles from **one** sorted snapshot.

        A snapshot-then-sort makes two guarantees a loop of
        :meth:`percentile` calls cannot: the answers are mutually
        consistent (all computed over the *same* observations, even if a
        recording races the query from another thread), and the window
        is sorted once instead of partitioned per quantile.  The
        interpolation is ``np.percentile``'s default (linear) term for
        term, so the answers agree with it bit for bit.
        """
        if len(self) == 0:
            return tuple(float("nan") for _ in qs)
        values = np.sort(self._values())  # one copy + one sort: the snapshot
        top = len(values) - 1
        out = []
        for q in qs:
            position = top * (float(q) / 100.0)
            if position >= top:
                out.append(float(values[top]))
                continue
            low = int(position)
            fraction = position - low
            below, above = values[low], values[low + 1]
            step = above - below
            # numpy's lerp: interpolate from the nearer neighbour.
            if fraction < 0.5:
                out.append(float(below + step * fraction))
            else:
                out.append(float(above - step * (1.0 - fraction)))
        return tuple(out)

    def mean(self) -> float:
        if len(self) == 0:
            return float("nan")
        return float(self._values().mean())


class BatcherStats:
    """Telemetry for one :class:`~repro.serve.DynamicBatcher`.

    Counters
    --------
    submitted / completed:
        Requests accepted into the queue / resolved with a result.
    rejected:
        Requests refused at :meth:`~repro.serve.DynamicBatcher.submit`
        because the bounded queue was full
        (:class:`~repro.serve.ServerOverloadedError`).
    deadline_missed:
        Requests whose latency deadline expired while they waited in the
        queue; the batcher fails them with
        :class:`~repro.serve.DeadlineExceededError` *before* admission to
        a batch, so no engine time is wasted on answers nobody can use.
    shed_retried / shed_recovered:
        Requests handed to the batcher's one-shot shed-retry hook (the
        cluster layer's rescue-on-an-idle-replica path) instead of being
        failed outright, and how many of those the hook answered.  A
        rescued request counts under neither ``deadline_missed`` nor the
        batch counters -- it bypassed the batch entirely.
    batches / largest_batch / mean_batch_size:
        Fusion quality of the policy.

    ``replicas`` is ``None`` for in-process models; a server running a
    model on a :class:`~repro.cluster.ReplicaGroup` attaches the group's
    per-replica breakdown (in-flight depth, EWMA latency, restarts)
    before returning :meth:`~repro.serve.InferenceServer.stats`.

    Windows (milliseconds)
    ----------------------
    ``latency`` (submit to result), ``queue_wait`` (submit to batch
    start) and ``compute`` (fused engine-call duration, recorded once per
    batch).  Exposed as ``p50_latency_ms`` etc. and via :meth:`as_dict`,
    which is what ``InferenceServer.stats()`` serializes for dashboards.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.deadline_missed = 0
        self.shed_retried = 0
        self.shed_recovered = 0
        self.batches = 0
        self.largest_batch = 0
        self.latency = PercentileWindow(window)
        self.queue_wait = PercentileWindow(window)
        self.compute = PercentileWindow(window)
        #: Per-replica breakdown, attached by the server for cluster models.
        self.replicas = None
        #: Autoscaler snapshot (:meth:`~repro.cluster.Autoscaler.snapshot`),
        #: attached by the server for autoscaled models.
        self.autoscaler = None
        #: Store identity (:meth:`~repro.store.StoreRef.describe`: name,
        #: pinned version, content hash), attached by the server for
        #: store-backed models -- ``swap_model`` flips it atomically.
        self.store = None

    # ------------------------------------------------------------------ #
    # Recording (called from the batcher's worker task)
    # ------------------------------------------------------------------ #
    def record_batch(self, batch_size: int, compute_s: float) -> None:
        """One fused engine call finished."""
        self.batches += 1
        self.completed += batch_size
        self.largest_batch = max(self.largest_batch, batch_size)
        self.compute.record(compute_s * 1000.0)

    def record_request(self, queue_wait_s: float, latency_s: float) -> None:
        """One request resolved (per row of the batch)."""
        self.queue_wait.record(queue_wait_s * 1000.0)
        self.latency.record(latency_s * 1000.0)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    @property
    def p50_latency_ms(self) -> float:
        return self.latency.percentile(50)

    @property
    def p95_latency_ms(self) -> float:
        return self.latency.percentile(95)

    @property
    def p99_latency_ms(self) -> float:
        return self.latency.percentile(99)

    def as_dict(self) -> dict:
        """Flat JSON-friendly snapshot (counters + percentile summary).

        Cluster-backed models additionally carry a ``replicas`` list with
        one row per worker process.
        """
        # One sorted pass over one snapshot: the three quantiles are
        # mutually consistent even when a recording races this query.
        p50, p95, p99 = self.latency.quantiles((50, 95, 99))
        snapshot = {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_missed": self.deadline_missed,
            "shed_retried": self.shed_retried,
            "shed_recovered": self.shed_recovered,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
            "p50_latency_ms": p50,
            "p95_latency_ms": p95,
            "p99_latency_ms": p99,
            "mean_queue_wait_ms": self.queue_wait.mean(),
            "mean_compute_ms": self.compute.mean(),
        }
        if self.replicas is not None:
            snapshot["replicas"] = list(self.replicas)
        if self.autoscaler is not None:
            snapshot["autoscaler"] = dict(self.autoscaler)
        if self.store is not None:
            snapshot["store"] = dict(self.store)
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatcherStats(completed={self.completed}, rejected={self.rejected}, "
            f"deadline_missed={self.deadline_missed}, batches={self.batches}, "
            f"mean_batch_size={self.mean_batch_size:.2f})"
        )
