"""Prometheus text exposition, by hand: counters, gauges, summaries.

``GET /metrics`` renders the serving stack's numbers in the Prometheus
text format (version 0.0.4) without importing a client library.  The
format is small enough to emit directly -- ``# HELP``/``# TYPE`` header
lines, then one sample per line -- and emitting it ourselves keeps four
invariants the stack cares about:

* **NaN-free by construction.**  Percentile windows answer ``nan``
  before any traffic; :class:`MetricsWriter` silently skips non-finite
  values, so an idle server scrapes clean (the strict-JSON twin of the
  ``/v1/stats`` regression).
* **Counters are monotonic.**  Everything rendered as ``counter`` maps
  to an ever-increasing Python int maintained by the stats objects.
* **Latencies are summaries over the serving windows.**
  :meth:`MetricsWriter.summary` renders a
  :class:`~repro.serve.metrics.PercentileWindow` directly: ``quantile``
  samples from one sorted snapshot of the recent window, ``_sum`` /
  ``_count`` over its lifetime.  There is no second recorded form, so
  the scraped p99 is the one ``/v1/stats`` and the autoscaler read.
* **Each family is one contiguous group.**  Samples are buffered per
  family and rendered together, header first, however the per-model and
  per-replica calls interleave.

:func:`render_server_metrics` is the one composition point: it walks the
per-model :class:`~repro.serve.metrics.BatcherStats` (duck-typed -- this
module must not import the serving layer), the per-replica rows, the
autoscaler snapshot, the store identity, the gateway limits and the
tracer counters, and returns the full exposition body.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["MetricsWriter", "render_server_metrics"]


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(value)


class MetricsWriter:
    """Buffers samples per metric family; renders each family as one group.

    Text format 0.0.4 requires all lines of a family to sit together,
    ``# HELP``/``# TYPE`` first.  Callers emit model by model and replica
    by replica, so one family's samples arrive interleaved with other
    families'; :meth:`render` emits families in first-seen order, each
    with its header and all of its samples.
    """

    def __init__(self):
        self._families: Dict[str, List[str]] = {}

    def _family(self, name: str, help_text: str, metric_type: str) -> List[str]:
        lines = self._families.get(name)
        if lines is None:
            lines = self._families[name] = [f"# HELP {name} {help_text}", f"# TYPE {name} {metric_type}"]
        return lines

    @staticmethod
    def _sample(lines: List[str], name: str, labels: Optional[Dict[str, str]], value) -> None:
        if value is None:
            return
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            return
        if not math.isfinite(float(value)):
            return  # NaN/Inf never reach the wire
        rendered = ""
        if labels:
            pairs = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels.items())
            rendered = "{" + pairs + "}"
        lines.append(f"{name}{rendered} {_format_value(value)}")

    def counter(self, name: str, help_text: str, value, labels=None) -> None:
        self._sample(self._family(name, help_text, "counter"), name, labels, value)

    def gauge(self, name: str, help_text: str, value, labels=None) -> None:
        self._sample(self._family(name, help_text, "gauge"), name, labels, value)

    def summary(self, name: str, help_text: str, window, labels=None) -> None:
        """A :class:`~repro.serve.metrics.PercentileWindow` as a summary.

        The ``quantile`` samples come from one ``window.quantiles``
        snapshot and render only once the window has samples; ``_sum``
        and ``_count`` are the window's lifetime totals and always render.
        """
        lines = self._family(name, help_text, "summary")
        labels = labels or {}
        if len(window):
            for quantile, value in zip(("0.5", "0.95", "0.99"), window.quantiles((50, 95, 99))):
                self._sample(lines, name, {**labels, "quantile": quantile}, value)
        self._sample(lines, f"{name}_sum", labels, window.sum)
        self._sample(lines, f"{name}_count", labels, window.total_recorded)

    def render(self) -> str:
        return "\n".join(line for lines in self._families.values() for line in lines) + "\n"


# ---------------------------------------------------------------------- #
# The serving stack's exposition
# ---------------------------------------------------------------------- #
_COUNTERS = (
    ("submitted", "Requests accepted into the batcher queue."),
    ("completed", "Requests resolved with a result."),
    ("rejected", "Requests refused because the bounded queue was full."),
    ("deadline_missed", "Requests failed on an expired latency deadline."),
    ("shed_retried", "Shed requests handed to the one-shot rescue hook."),
    ("shed_recovered", "Shed requests the rescue hook answered."),
    ("batches", "Fused engine calls."),
)

_REPLICA_COUNTERS = (
    ("dispatched", "Fused batches this replica answered."),
    ("failures", "Calls this replica failed (crash, timeout or error answer)."),
    ("restarts", "Times this replica's worker was restarted."),
)

_AUTOSCALER_COUNTERS = (
    ("scale_ups", "Autoscaler scale-up actions."),
    ("scale_downs", "Autoscaler scale-down actions."),
    ("holds", "Autoscaler hold decisions."),
    ("nan_holds", "Holds forced by a cold percentile window."),
    ("idle_demotions", "Idle models demoted to the registry's LRU front."),
    ("errors", "Autoscaler steps that failed."),
)


def render_server_metrics(
    stats_by_model: Dict[str, object],
    *,
    gateway: Optional[dict] = None,
    tracer: Optional[object] = None,
) -> str:
    """The full ``GET /metrics`` body for one serving process."""
    writer = MetricsWriter()
    for model, stats in sorted(stats_by_model.items()):
        labels = {"model": model}
        for key, help_text in _COUNTERS:
            writer.counter(f"repro_{key}_total", help_text, getattr(stats, key, None), labels)
        writer.gauge("repro_largest_batch", "Largest fused batch so far.",
                     getattr(stats, "largest_batch", None), labels)
        writer.gauge("repro_mean_batch_size", "Mean fused batch size.",
                     getattr(stats, "mean_batch_size", None), labels)
        for attr, name, help_text in (
            ("latency", "repro_request_latency_ms", "End-to-end request latency (ms)."),
            ("queue_wait", "repro_queue_wait_ms", "Submit-to-batch-start wait (ms)."),
            ("compute", "repro_batch_compute_ms", "Fused engine-call duration (ms)."),
        ):
            window = getattr(stats, attr, None)
            if window is not None:
                writer.summary(name, help_text, window, labels)
        for row in getattr(stats, "replicas", None) or []:
            rlabels = {**labels, "replica": str(row.get("replica"))}
            writer.gauge("repro_replica_alive", "Replica liveness (1 = routable).",
                         row.get("alive"), rlabels)
            writer.gauge("repro_replica_in_flight", "Batches dispatched at this replica.",
                         row.get("in_flight"), rlabels)
            writer.gauge("repro_replica_ewma_latency_ms", "EWMA call latency (ms).",
                         row.get("ewma_latency_ms"), rlabels)
            for key, help_text in _REPLICA_COUNTERS:
                writer.counter(f"repro_replica_{key}_total", help_text, row.get(key), rlabels)
        scaler = getattr(stats, "autoscaler", None)
        if scaler:
            writer.gauge("repro_autoscaler_fleet", "Replica fleet size.", scaler.get("fleet"), labels)
            writer.gauge("repro_autoscaler_alive", "Routable replicas.", scaler.get("alive"), labels)
            for key, help_text in _AUTOSCALER_COUNTERS:
                writer.counter(f"repro_autoscaler_{key}_total", help_text, scaler.get(key), labels)
        store = getattr(stats, "store", None)
        if store:
            writer.gauge(
                "repro_model_store_info",
                "Store identity of the serving version (labels carry the detail).",
                1,
                {
                    **labels,
                    "version": str(store.get("version_tag", store.get("version", "?"))),
                    "content_hash": str(store.get("content_hash", "?"))[:12],
                },
            )
    if gateway:
        for key in ("open_connections", "inflight", "max_connections", "max_inflight"):
            writer.gauge(f"repro_gateway_{key}", f"Gateway {key.replace('_', ' ')}.",
                         gateway.get(key))
        for key in ("total_connections", "total_requests", "connections_rejected", "requests_rejected"):
            writer.counter(f"repro_gateway_{key}_total", f"Gateway {key.replace('_', ' ')}.",
                           gateway.get(key))
    if tracer is not None:
        snap = tracer.snapshot()
        writer.gauge("repro_obs_sample_rate", "Trace sampling rate.", snap.get("sample_rate"))
        writer.gauge("repro_obs_traces_buffered", "Finished traces retained.", snap.get("buffered"))
        for key in ("started", "sampled_out", "finished", "evicted"):
            writer.counter(f"repro_obs_traces_{key}_total", f"Traces {key.replace('_', ' ')}.",
                           snap.get(key))
    return writer.render()
