"""Latency-SLO serving: batching policies under open-loop Poisson load.

The closed-loop benchmark (``bench_serving_throughput.py``) answers "how
fast can clients pull answers"; this one answers the production question
"how much *offered* traffic can the server absorb while p99 latency
stays inside a budget".  Following the iso-metric argument (PAPERS.md:
report throughput at a fixed latency target, not raw images/sec), each
batching policy is swept over Poisson arrival rates and scored by its
**max sustained rate**: the highest arrival rate at which

* p99 latency of completed requests stays <= ``SLO_MS``, and
* at least 99% of issued requests are answered (no holding the SLO by
  shedding traffic wholesale).

Three policies from ``repro.serve.policy`` compete on identical
sessions:

* **fixed** -- :class:`FixedWindowPolicy` with the PR 3 defaults
  (``max_batch=32``, ``max_wait_ms=2``): the static baseline.
* **slo** -- :class:`SLOAwarePolicy`: per-request deadlines, an online
  EWMA latency model sizing batches to the budget, and shedding of
  requests that already missed.  Near saturation this is the difference
  between a burst backlog poisoning every later request (fixed) and the
  burst tail being cut at exactly the requests that were unanswerable
  anyway.
* **adaptive** -- :class:`AdaptivePolicy`: AIMD batch sizing from queue
  depth, no deadline knowledge.

The committed ``benchmarks/results/slo_serving.json`` shows the SLO
policy sustaining >= 1.2x the fixed window's arrival rate at an equal
p99 budget at sys_size 64 (the quiet-machine claim this file gates on);
``--smoke`` (or ``SLO_BENCH_SMOKE=1``) runs a seconds-long small-size
sweep for CI, gating only on "every policy serves and the harness
works".

Run directly (``python benchmarks/bench_slo_serving.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_slo_serving.py -s``).
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np

from _bench_helpers import cli_value, report, save_results
from loadgen import LoadResult, build_session, measure_capacity, run_metadata, run_open_loop
from repro.serve import AdaptivePolicy, FixedWindowPolicy, InferenceServer, SLOAwarePolicy

SMOKE = bool(int(os.environ.get("SLO_BENCH_SMOKE", "0"))) or "--smoke" in sys.argv
#: Seed for payload content and the Poisson arrival schedule -- recorded
#: in the committed results JSON so a run can be reproduced exactly.
SEED = int(os.environ.get("SLO_BENCH_SEED", cli_value("--seed", "42")))
SYS_SIZE = int(os.environ.get("SLO_BENCH_SYS_SIZE", "32" if SMOKE else "64"))
NUM_LAYERS = 5
DTYPE = os.environ.get("SLO_BENCH_DTYPE", "complex128")
#: The p99 latency budget every policy is judged against.
SLO_MS = float(os.environ.get("SLO_BENCH_SLO_MS", "40"))
#: Arrival rates swept, as fractions of the measured fused-call capacity.
RATE_FRACTIONS = (
    (0.5, 0.9) if SMOKE else (0.45, 0.65, 0.8, 0.9, 1.0, 1.1)
)
#: Offered requests per (policy, rate) point.
NUM_REQUESTS = int(os.environ.get("SLO_BENCH_REQUESTS", "200" if SMOKE else "2500"))
MAX_QUEUE = 8192
#: Required sustained-rate ratio of slo vs fixed on a quiet machine; CI
#: smoke sets 0 (shared runners cannot hold a latency claim).
MIN_RATIO = 0.0 if SMOKE else float(os.environ.get("SLO_RATIO_FLOOR", "1.2"))
#: Alternative gate (the iso-throughput clause): at the highest rate both
#: policies fully serve, the SLO policy's p99 must be this many times
#: lower than the fixed window's, at >= 90% of its throughput.
MIN_P99_IMPROVEMENT = float(os.environ.get("SLO_P99_FLOOR", "1.5"))
MIN_SUCCESS = 0.99


def _policies() -> dict:
    """Fresh policy instances per sweep point (policies are stateful)."""
    return {
        "fixed": lambda: FixedWindowPolicy(max_batch=32, max_wait_ms=2.0),
        "slo": lambda: SLOAwarePolicy(slo_ms=SLO_MS, max_batch=64),
        "adaptive": lambda: AdaptivePolicy(max_batch=64, max_wait_ms=2.0),
    }


def _run_point(session, policy_factory, rate_rps: float, payloads) -> LoadResult:
    """One (policy, arrival-rate) sweep point on a fresh server."""

    async def drive():
        server = InferenceServer(policy=policy_factory, max_queue=MAX_QUEUE)
        server.add_model("bench", session)
        async with server:
            # Warm the path (and the SLO policy's latency model) with a
            # short burst that is not measured.
            warm = payloads[: min(64, len(payloads))]
            await asyncio.gather(
                *(server.submit("bench", image) for image in warm), return_exceptions=True
            )
            return await run_open_loop(
                lambda image: server.submit("bench", image),
                payloads,
                rate_rps,
                np.random.default_rng(SEED + 1),
            )

    return asyncio.run(drive())


def _sweep():
    import gc

    session = build_session(SYS_SIZE, NUM_LAYERS, batch_size=64, dtype=DTYPE)
    capacity = measure_capacity(session, batch=32, seed=0)
    rng = np.random.default_rng(SEED)
    payloads = rng.uniform(0.0, 1.0, size=(NUM_REQUESTS, SYS_SIZE, SYS_SIZE))

    rows = []
    sustained = {}
    results = {}
    # GC pauses land in every policy's tail alike; freezing collection for
    # the sweep keeps the p99 about batching, not allocator luck.
    gc.collect()
    gc.disable()
    try:
        for name, factory in _policies().items():
            best = 0.0
            results[name] = {}
            for fraction in RATE_FRACTIONS:
                rate = capacity * fraction
                result = _run_point(session, factory, rate, payloads)
                results[name][fraction] = result
                ok = result.sustains(SLO_MS, MIN_SUCCESS)
                if ok:
                    best = max(best, rate)
                rows.append(
                    {
                        "policy": name,
                        "rate_fraction_of_capacity": fraction,
                        "slo_ms": SLO_MS,
                        "sustained": ok,
                        **result.row(),
                    }
                )
            sustained[name] = best
    finally:
        gc.enable()

    summary = {
        "policy": "summary",
        "sys_size": SYS_SIZE,
        "dtype": DTYPE,
        "capacity_images_per_sec": capacity,
        "slo_ms": SLO_MS,
        "min_success": MIN_SUCCESS,
        **{f"max_sustained_rps_{name}": rate for name, rate in sustained.items()},
    }
    if sustained.get("fixed", 0.0) > 0.0:
        summary["slo_vs_fixed_sustained_ratio"] = sustained["slo"] / sustained["fixed"]
    iso = _iso_throughput_point(results)
    if iso is not None:
        fraction, fixed_point, slo_point = iso
        summary.update(
            iso_rate_fraction=fraction,
            iso_fixed_p99_ms=fixed_point.percentile(99),
            iso_slo_p99_ms=slo_point.percentile(99),
            iso_p99_improvement=fixed_point.percentile(99) / slo_point.percentile(99),
            iso_throughput_ratio=slo_point.achieved_rate / fixed_point.achieved_rate,
        )
    rows.append(summary)
    return rows, sustained, summary


def _iso_throughput_point(results):
    """Highest swept rate at which *both* policies answer >= MIN_SUCCESS.

    This is where the acceptance criterion's iso-throughput clause is
    evaluated: equal offered (and, checked in ``_check``, near-equal
    achieved) throughput -- how do the tails compare?
    """
    for fraction in sorted(RATE_FRACTIONS, reverse=True):
        fixed_point = results.get("fixed", {}).get(fraction)
        slo_point = results.get("slo", {}).get(fraction)
        if fixed_point is None or slo_point is None:
            continue
        if fixed_point.success_rate >= MIN_SUCCESS and slo_point.success_rate >= MIN_SUCCESS:
            return fraction, fixed_point, slo_point
    return None


def _check(rows, sustained, summary) -> None:
    for name, best in sustained.items():
        assert best > 0.0, f"policy {name!r} sustained no swept rate under the {SLO_MS}ms SLO"
    if SMOKE:
        return
    # The acceptance gate, matching the issue's either/or phrasing:
    # >= MIN_RATIO sustained arrival rate at the equal p99 budget, OR
    # near-equal throughput at a >= MIN_P99_IMPROVEMENT lower p99.
    sustained_ratio = sustained["slo"] / sustained["fixed"]
    if sustained_ratio >= MIN_RATIO:
        return
    p99_improvement = summary.get("iso_p99_improvement", 0.0)
    throughput_ratio = summary.get("iso_throughput_ratio", 0.0)
    assert p99_improvement >= MIN_P99_IMPROVEMENT and throughput_ratio >= 0.9, (
        f"SLOAwarePolicy sustained only {sustained_ratio:.2f}x the fixed window's arrival rate "
        f"(floor {MIN_RATIO}x) and its iso-throughput p99 improvement is "
        f"{p99_improvement:.2f}x at {throughput_ratio:.2f}x throughput "
        f"(floors {MIN_P99_IMPROVEMENT}x at 0.9x)"
    )


def _notes() -> str:
    return (
        f"Open-loop Poisson load against a {NUM_LAYERS}-layer DONN at sys_size {SYS_SIZE} "
        f"({DTYPE} engine), {NUM_REQUESTS} offered requests per point.  A rate is 'sustained' "
        f"when p99 latency (clocked from the scheduled arrival instant) stays <= {SLO_MS}ms "
        f"and >= {MIN_SUCCESS:.0%} of offered requests are answered.  fixed = "
        "FixedWindowPolicy(max_batch=32, max_wait_ms=2); slo = SLOAwarePolicy (deadlines + "
        "EWMA latency model + shedding); adaptive = AdaptivePolicy (AIMD on queue depth).  "
        "The summary row's iso_* fields compare the tails at the highest rate both fixed and "
        "slo fully serve -- the issue's 'equal throughput at a lower p99' clause."
    )


def test_slo_serving(benchmark):
    rows, sustained, summary = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("SLO serving: policies under open-loop Poisson load", rows, _notes())
    save_results(
        "slo_serving_smoke" if SMOKE else "slo_serving", rows, _notes(), metadata=run_metadata(SEED)
    )
    _check(rows, sustained, summary)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke run
    rows, sustained, summary = _sweep()
    report("SLO serving: policies under open-loop Poisson load", rows, _notes())
    if "--no-save" not in sys.argv:
        save_results(
            "slo_serving_smoke" if SMOKE else "slo_serving", rows, _notes(), metadata=run_metadata(SEED)
        )
    _check(rows, sustained, summary)
    print(f"max sustained rps: {sustained}")
    if "iso_p99_improvement" in summary:
        print(
            f"iso-throughput point ({summary['iso_rate_fraction']:.2f}x capacity): "
            f"p99 {summary['iso_slo_p99_ms']:.1f} ms (slo) vs {summary['iso_fixed_p99_ms']:.1f} ms (fixed), "
            f"{summary['iso_p99_improvement']:.2f}x lower at {summary['iso_throughput_ratio']:.2f}x throughput"
        )
