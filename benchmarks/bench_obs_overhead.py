"""Observability overhead: serving with tracing on vs sampled out.

``repro.obs`` promises to be *always-on cheap*: with ``sample_rate=0``
the instrumentation sites see ``None`` and allocate nothing, and with
``sample_rate=1.0`` the full span pipeline (gateway decode/encode spans,
queue spans, the shared batch span, dispatch + stitched compute spans,
the trace ring) must cost less than **3%** of end-to-end latency.  This
benchmark measures that promise with the open-loop Poisson generator
driving the same :class:`~repro.serve.InferenceServer` twice over an
identical arrival schedule:

* **obs_off** -- a tracer with ``sample_rate=0.0``: every request takes
  the sampled-out branch (one comparison, no allocation), which is the
  deployed shape when tracing is disabled.
* **obs_on** -- ``sample_rate=1.0``: every request mints a trace, the
  batcher/cluster layers hang spans off it, and the finished trace is
  filed into the ring buffer.

Both modes run the *same* submit wrapper (mint-or-skip, install, finish)
so the comparison isolates the cost of live spans rather than the cost
of calling the tracer at all.  Reported per mode and rate: p50/p95/p99
latency and achieved images/sec; the summary row records the p50
overhead factor per rate.

The <3% gate is an acceptance criterion but it is only *armed* when the
host has >= ``GATE_MIN_CORES`` (default 4) usable cores: on a one-core
CI container the load generator, batcher and engine fight for the same
core and scheduling jitter alone exceeds 3%, so the run records its
numbers honestly (``gate_armed: false`` in the summary) without failing.
``--smoke`` (or ``OBS_BENCH_SMOKE=1``) shrinks the sweep for CI and only
checks that both modes complete cleanly.

Run directly (``python benchmarks/bench_obs_overhead.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_obs_overhead.py -s``).
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys

import numpy as np

from _bench_helpers import cli_value, report, save_results
from loadgen import LoadResult, build_session, measure_capacity, run_metadata, run_open_loop, usable_cores
from repro.obs import Tracer, use_trace
from repro.serve import InferenceServer

SMOKE = bool(int(os.environ.get("OBS_BENCH_SMOKE", "0"))) or "--smoke" in sys.argv
SEED = int(os.environ.get("OBS_BENCH_SEED", cli_value("--seed", "42")))
SYS_SIZE = int(os.environ.get("OBS_BENCH_SYS_SIZE", "32" if SMOKE else "64"))
NUM_LAYERS = 5
RATE_FRACTIONS = (0.3,) if SMOKE else (0.2, 0.3)
NUM_REQUESTS = int(os.environ.get("OBS_BENCH_REQUESTS", "150" if SMOKE else "500"))
#: Repetitions per (mode, rate) point; each point reports its median-p50
#: repetition so one machine stall cannot decide a 3% comparison.
NUM_REPS = 1 if SMOKE else 5
#: The acceptance bound: obs_on p50 within this factor of obs_off p50.
OVERHEAD_LIMIT = float(os.environ.get("OBS_OVERHEAD_LIMIT", "1.03"))
#: The gate needs cores to spare -- below this, scheduling jitter on the
#: shared core swamps a 3% effect and the numbers are recorded un-gated.
GATE_MIN_CORES = int(os.environ.get("OBS_GATE_MIN_CORES", "4"))
MAX_BATCH = 32
MAX_WAIT_MS = 5.0
MAX_QUEUE = 4096


def _run_mode(session, sample_rate: float, rate_rps: float, payloads) -> LoadResult:
    """One open-loop run with the given tracer sample rate.

    The submit wrapper mirrors the gateway's instrumentation exactly:
    mint (or skip) a trace, install it so the batcher hangs spans off
    it, await the inference, finish and file the trace.
    """
    tracer = Tracer(sample_rate=sample_rate)

    async def drive():
        server = InferenceServer(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
        server.add_model("bench", session)

        async def submit(image):
            trace = tracer.trace()
            if trace is None:
                return await server.submit("bench", image)
            try:
                with use_trace(trace):
                    return await server.submit("bench", image)
            finally:
                tracer.finish(trace)

        async with server:
            warm = payloads[: min(32, len(payloads))]
            await asyncio.gather(*(submit(image) for image in warm), return_exceptions=True)
            return await run_open_loop(
                submit, payloads, rate_rps, np.random.default_rng(SEED + 1)
            )

    return asyncio.run(drive())


def _sweep():
    session = build_session(SYS_SIZE, NUM_LAYERS, batch_size=MAX_BATCH)
    capacity = measure_capacity(session, batch=MAX_BATCH, seed=0)
    rng = np.random.default_rng(SEED)
    payloads = np.round(rng.uniform(0.0, 1.0, size=(NUM_REQUESTS, SYS_SIZE, SYS_SIZE)), 3)

    modes = {"obs_off": 0.0, "obs_on": 1.0}
    rows = []
    results = {}
    all_reps = []
    gc.collect()
    gc.disable()
    try:
        # Unmeasured warm-up per mode: first asyncio.run pays one-time
        # costs (executor spin-up) that would land as a fake outlier.
        for sample_rate in modes.values():
            _run_mode(session, sample_rate, capacity * RATE_FRACTIONS[0], payloads[:40])
        for fraction in RATE_FRACTIONS:
            rate = capacity * fraction
            for mode, sample_rate in modes.items():
                reps = [_run_mode(session, sample_rate, rate, payloads) for _ in range(NUM_REPS)]
                all_reps.extend((mode, fraction, rep) for rep in reps)
                result = sorted(reps, key=lambda r: r.percentile(50))[NUM_REPS // 2]
                results[(mode, fraction)] = result
                rows.append(
                    {
                        "mode": mode,
                        "rate_fraction_of_capacity": fraction,
                        "reps": NUM_REPS,
                        **result.row(),
                    }
                )
    finally:
        gc.enable()

    gate_armed = not SMOKE and usable_cores() >= GATE_MIN_CORES
    summary = {
        "mode": "summary",
        "sys_size": SYS_SIZE,
        "num_layers": NUM_LAYERS,
        "capacity_images_per_sec": capacity,
        "overhead_limit_factor": OVERHEAD_LIMIT,
        "gate_armed": gate_armed,
        "gate_min_cores": GATE_MIN_CORES,
        "usable_cores": usable_cores(),
    }
    for fraction in RATE_FRACTIONS:
        off = results[("obs_off", fraction)]
        on = results[("obs_on", fraction)]
        if off.completed and on.completed:
            summary[f"p50_overhead_factor_at_{fraction}"] = on.percentile(50) / off.percentile(50)
            summary[f"p99_overhead_factor_at_{fraction}"] = on.percentile(99) / off.percentile(99)
    rows.append(summary)
    return rows, results, summary, all_reps


def _check(results, summary, all_reps) -> None:
    for mode, fraction, rep in all_reps:
        assert rep.errors == 0, f"{mode} at {fraction}x capacity hit {rep.errors} errors"
        assert rep.completed > 0, f"{mode} at {fraction}x capacity completed nothing"
    if not summary["gate_armed"]:
        return
    for fraction in RATE_FRACTIONS:
        factor = summary.get(f"p50_overhead_factor_at_{fraction}")
        assert factor is not None and factor <= OVERHEAD_LIMIT, (
            f"tracing adds {100 * (factor - 1):.1f}% p50 latency at {fraction}x capacity "
            f"(limit {100 * (OVERHEAD_LIMIT - 1):.0f}%)"
        )


def _notes() -> str:
    return (
        f"Open-loop Poisson load against a {NUM_LAYERS}-layer DONN at sys_size {SYS_SIZE} "
        f"(complex128 engine), {NUM_REQUESTS} offered requests per point, identical arrival "
        f"schedules per mode; each point reports the median-p50 repetition of {NUM_REPS} "
        "run(s).  obs_off runs a tracer at sample_rate=0 (the sampled-out branch: no "
        "allocation); obs_on runs sample_rate=1.0 (full span pipeline: request, queue, "
        "batch, dispatch and compute spans plus the trace ring).  Both modes share the "
        "mint-install-finish submit wrapper so the difference isolates live-span cost.  "
        f"The <{100 * (OVERHEAD_LIMIT - 1):.0f}% p50 gate arms only with >= "
        f"{GATE_MIN_CORES} usable cores -- on fewer, scheduler jitter on the shared core "
        "exceeds the bound and the run records its factors honestly without failing."
    )


def test_obs_overhead(benchmark):
    rows, results, summary, all_reps = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("Observability overhead: tracing on vs sampled out", rows, _notes())
    save_results(
        "obs_overhead_smoke" if SMOKE else "obs_overhead",
        rows,
        _notes(),
        metadata=run_metadata(SEED),
    )
    _check(results, summary, all_reps)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke run
    rows, results, summary, all_reps = _sweep()
    report("Observability overhead: tracing on vs sampled out", rows, _notes())
    if "--no-save" not in sys.argv:
        save_results(
            "obs_overhead_smoke" if SMOKE else "obs_overhead",
            rows,
            _notes(),
            metadata=run_metadata(SEED),
        )
    _check(results, summary, all_reps)
    for key, value in summary.items():
        if key.endswith(tuple(f"_{f}" for f in RATE_FRACTIONS)) and isinstance(value, float):
            print(f"{key}: {value:.3f}x")
