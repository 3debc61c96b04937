"""Run one workload and turn what it measured into the benchmark's metrics.

Imported only by the worker process ``run.py`` starts; see ``run.py``
for the command line and ``README.md`` for what each metric means.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import design
import serving
from common import (
    WORK_DIR,
    Span,
    Tracer,
    children_of,
    host_metadata,
    median,
    peak_rss_mb_self,
    percentile,
    self_times,
    time_builds,
    write_spans,
)
from loadgen import run_metadata

@dataclass
class Outcome:
    """What one workload run measured: metric values plus operation counts."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    info: dict

    def error_ratio(self) -> float:
        """``(failed + 1) / (attempted + 1)``: the failure share, add-one
        smoothed so that it is never 0.  A clean run reads
        ``1 / (attempted + 1)``; one failure doubles it."""
        return (self.failed + 1) / (self.attempted + 1)


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    """The last line of standard output: the benchmark's one result object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        }
    )


#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"train_sys200": 9, "emulate_sys200": 9, "serve_http_sys64": 3}


def tail_percentile(count: int) -> float:
    """The highest percentile, up to 99, that leaves ten samples beyond it."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / count)))


def _latency_metrics(samples_ms) -> Dict[str, float]:
    """``latency_p50_ms`` and ``latency_p99_ms``.  The p99 needs 1000
    samples; a run with fewer (a train step or an emulate chunk takes
    about a second) reports the highest percentile its samples support,
    and says which in its ``meta`` line."""
    return {
        "latency_p50_ms": percentile(samples_ms, 50),
        "latency_p99_ms": percentile(samples_ms, tail_percentile(len(samples_ms))),
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def train(seed: int, seconds: float, setup_reps: int, tracer: Optional[Tracer] = None, state=None):
    """``train_sys200``; ``state`` carries the model between the two halves
    of a traced run so the second half continues the same training."""
    rng = np.random.default_rng(seed)
    if state is None:
        images, labels = design.digits(seed, design.TRAIN_POOL)
        setup, (model, optimizer) = time_builds(design.build_trainer, setup_reps)
        warm = design.train_step(model, optimizer, images[: design.TRAIN_BATCH], labels[: design.TRAIN_BATCH])
        state = {
            "images": images,
            "labels": labels,
            "model": model,
            "optimizer": optimizer,
            "setup": setup,
            "warm_loss": warm,
        }
    steps, losses = design.train_loop(
        state["model"], state["optimizer"], state["images"], state["labels"], seconds, rng, tracer
    )
    losses.append(state["warm_loss"])
    nonfinite = sum(1 for loss in losses if not math.isfinite(loss))
    parity = design.train_parity(state["model"], state["images"][:8])
    outcome = Outcome(
        metrics={
            "setup_s": median(state["setup"]),
            "images_per_s": design.TRAIN_BATCH / median(steps),
            **_latency_metrics([step * 1000.0 for step in steps]),
            "peak_rss_mb": peak_rss_mb_self(),
        },
        attempted=len(losses) + 1,
        failed=nonfinite + (0 if parity else 1),
        correct=nonfinite == 0 and parity,
        info={"latency_samples": len(steps), "tail_percentile": tail_percentile(len(steps))},
    )
    return outcome, state


def emulate(seed: int, seconds: float, setup_reps: int, tracer: Optional[Tracer] = None, state=None):
    rng = np.random.default_rng(seed)
    if state is None:
        images, _ = design.digits(seed, design.EMULATE_POOL)
        model = design.emulate_model()
        setup, session = time_builds(
            lambda: design.engine_compile(model, batch_size=design.EMULATE_CHUNK), setup_reps
        )
        session.run(images[: design.EMULATE_CHUNK])  # warm FFT plans
        state = {"images": images, "model": model, "session": session, "setup": setup}
    chunks, outputs = design.emulate_loop(state["session"], state["images"], seconds, rng, tracer)
    parity = design.emulate_parity(state["model"], state["images"], outputs, rng)
    attempted = design.EMULATE_CHUNK * len(chunks)
    outcome = Outcome(
        metrics={
            "setup_s": median(state["setup"]),
            "images_per_s": design.EMULATE_CHUNK / median(chunks),
            **_latency_metrics([chunk * 1000.0 for chunk in chunks]),
            "peak_rss_mb": peak_rss_mb_self(),
        },
        attempted=attempted,
        failed=0 if parity else design.EMULATE_CHUNK,
        correct=parity,
        info={"latency_samples": len(chunks), "tail_percentile": tail_percentile(len(chunks))},
    )
    return outcome, state


def serve(seed: int, seconds: float, setup_reps: int, tracer: Optional[Tracer] = None, state=None):
    run = asyncio.run(serving.serve_run(seed, seconds, setup_reps, tracer))
    outcome = Outcome(
        metrics={
            "setup_s": median(run.setup_s),
            "images_per_s": run.images_per_s,
            **_latency_metrics(run.latencies_ms),
            "peak_rss_mb": run.peak_rss_mb,
        },
        attempted=run.attempted,
        failed=run.failed,
        correct=run.failed == 0,
        info={
            "latency_samples": len(run.latencies_ms),
            "tail_percentile": tail_percentile(len(run.latencies_ms)),
            "wrong_logits": run.wrong,
            "lateness_p99_ms": run.lateness_p99_ms,
        },
    )
    return outcome, state


RUNNERS = {"train_sys200": train, "emulate_sys200": emulate, "serve_http_sys64": serve}


# ---------------------------------------------------------------------- #
# Traced-run analysis
# ---------------------------------------------------------------------- #
def _adopt_batches(spans: List[Span]) -> Dict[str, List[Span]]:
    """Give each ``serve.submit`` the ``cluster.infer`` batch that answered it.

    A batch serves several requests, so it cannot name one as parent;
    the batch that answered a request is the last one dispatched after
    the request arrived that ended before the request returned.
    """
    batches = sorted((s for s in spans if s.name == "cluster.infer"), key=lambda s: s.end)
    adopted: Dict[str, List[Span]] = {}
    for submit in (s for s in spans if s.name == "serve.submit"):
        answering = [b for b in batches if b.start >= submit.start and b.end <= submit.end]
        if answering:
            adopted[submit.span_id] = [answering[-1]]
    return adopted


def budget(spans: List[Span], root_name: str, hops: Tuple[str, ...]):
    """Per-hop median self time (ms) and the per-root sum of hop self times (s)."""
    children = children_of(spans, _adopt_batches(spans))
    selfs = self_times(spans, children)
    per_hop: Dict[str, List[float]] = {hop: [] for hop in hops}
    sums: List[float] = []
    for root in (s for s in spans if s.name == root_name):
        total, stack, seen = 0.0, list(children.get(root.span_id, ())), set()
        hop_totals: Dict[str, float] = {}
        while stack:
            span = stack.pop()
            if span.span_id in seen:
                continue
            seen.add(span.span_id)
            if span.name in per_hop:
                hop_totals[span.name] = hop_totals.get(span.name, 0.0) + selfs[span.span_id]
                total += selfs[span.span_id]
            stack.extend(children.get(span.span_id, ()))
        for hop, value in hop_totals.items():
            per_hop[hop].append(value)
        sums.append(total)
    hop_ms = {hop: median(values) * 1000.0 if values else 0.0 for hop, values in per_hop.items()}
    return hop_ms, sums


def traced(args, budgets: dict):
    """The traced run: untraced half, traced half, then the layer probes."""
    runner = RUNNERS[args.workload]
    half = args.seconds / 2.0
    plain, state = runner(args.seed, half, 1)
    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    traced_outcome, _ = runner(args.seed, half, 1, tracer, state)
    root, hops = budgets[args.workload]
    hop_ms, sums = budget(tracer.spans, root, hops)
    untraced_ms = plain.metrics["latency_p50_ms"]
    traced_ms = traced_outcome.metrics["latency_p50_ms"]
    write_spans(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json", tracer.run_id, tracer.spans)

    serve_session = design.engine_compile(serving.serve_model(), batch_size=serving.MAX_BATCH)
    metrics = design.train_probes(args.seed)
    metrics.update(design.engine_probes(args.seed, serve_session, serving.payload_pool(args.seed)[0]))
    metrics.update(asyncio.run(serving.serve_probes(args.seed)))
    metrics["cluster.transport_overhead_ms"] = metrics["cluster.infer_b1_ms"] - metrics["engine.run_b1_ms"]
    metrics["trace.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100.0
    metrics["trace.coverage_ratio"] = median(sums) * 1000.0 / untraced_ms if sums else 0.0

    print(f"# traced budget for {args.workload} (root span {root}; {len(sums)} roots)")
    for hop, ms in hop_ms.items():
        print(f"#   {hop:<24} self p50 {ms:10.4f} ms")
    print(f"#   untraced p50 {untraced_ms:.4f} ms, traced p50 {traced_ms:.4f} ms")
    attempted = plain.attempted + traced_outcome.attempted
    failed = plain.failed + traced_outcome.failed
    correct = plain.correct and traced_outcome.correct
    return metrics, attempted, failed, correct


# ---------------------------------------------------------------------- #
# Entry
# ---------------------------------------------------------------------- #
def run(args, end_to_end: dict, per_layer: dict, budgets: dict) -> int:
    meta = {"workload": args.workload, "trace": args.trace, **run_metadata(args.seed), **host_metadata()}
    if args.trace:
        metrics, attempted, failed, correct = traced(args, budgets)
        units = {name: spec[0] for name, spec in per_layer.items()}
        for name in units:
            print(f"# {name:<34} {metrics[name]:>14.6g} {units[name]:<10} -> {per_layer[name][2]}")
    else:
        outcome, _ = RUNNERS[args.workload](args.seed, args.seconds, SETUP_REPS[args.workload])
        metrics = dict(outcome.metrics, error_ratio=outcome.error_ratio())
        attempted, failed, correct = outcome.attempted, outcome.failed, outcome.correct
        units = end_to_end
        meta.update(outcome.info)
        for name, unit in units.items():
            print(f"# {name:<16} {metrics[name]:>14.6g} {unit}")
    meta["backend_name"] = design.engine_compile(serving.serve_model()).backend_name
    print("# meta " + json.dumps(meta, sort_keys=True))
    missing = [name for name in units if not np.isfinite(metrics.get(name, float("nan")))]
    if missing:
        print(f"perfbench: non-finite or missing metrics {missing}", file=sys.stderr)
        return 1
    print(result_line(correct, attempted, failed, metrics, units))
    return 0
