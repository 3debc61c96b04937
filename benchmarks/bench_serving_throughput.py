"""Serving throughput: dynamic batching vs sequential per-request engine calls.

The roadmap's "heavy traffic" scenario: many concurrent clients each ask
for one image at a time.  Without batching every request pays the fixed
per-invocation cost of an engine call (python dispatch, FFT plan lookup,
encode) plus the serving stack's dispatch overhead; ``repro.serve``
coalesces concurrent requests into fused batched engine calls, amortizing
both.  This load generator runs closed-loop clients (each client submits
one request, awaits the answer, repeats) in three modes:

* **sequential_direct** -- a plain python loop of single-image engine
  calls, no serving stack at all: the hard floor, reported for
  transparency (it has zero dispatch overhead but also zero concurrency,
  backpressure or multi-tenancy).
* **sequential_serving** -- the same :class:`~repro.serve.InferenceServer`
  with ``max_batch=1``: sequential per-request engine calls as they
  actually manifest under concurrent clients.  This is the unbatched
  baseline the speedup gate compares against (identical infrastructure,
  coalescing off).
* **dynamic_batching** -- coalescing on (``max_batch``/``max_wait_ms``,
  idle-flush continuous batching).

It reports p50/p99 request latency and images/sec for each mode, asserts
the scattered results still match a direct engine run, and gates on a
minimum batched-vs-unbatched speedup.  On a quiet machine dynamic
batching is >= 1.5x at sys_size 64 under >= 8 concurrent clients (the
committed ``benchmarks/results/serving_throughput.json`` shows ~1.8x);
shared CI runners set a lower floor via ``SERVING_SPEEDUP_FLOOR``.  With
``SERVING_BENCH_SMOKE=1`` the run writes ``serving_throughput_smoke.json``
(git-ignored) instead of the committed quiet-machine results.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from _bench_helpers import report, save_results
from loadgen import run_metadata
from repro import DONN, DONNConfig
from repro.engine import compile as engine_compile
from repro.serve import FixedWindowPolicy, InferenceServer

SMOKE = bool(int(os.environ.get("SERVING_BENCH_SMOKE", "0")))
#: Payload-content seed; recorded in the committed results JSON.
SEED = int(os.environ.get("SERVING_BENCH_SEED", "42"))
SYS_SIZE = int(os.environ.get("SERVING_BENCH_SYS_SIZE", "64"))
NUM_LAYERS = 5
NUM_CLIENTS = int(os.environ.get("SERVING_BENCH_CLIENTS", "16"))
REQUESTS_PER_CLIENT = int(os.environ.get("SERVING_BENCH_REQUESTS", "24"))
# The serving-optimized engine configuration: reduced precision is the
# mode a throughput-bound deployment would pick, and every mode below
# uses the same session, so the speedup isolates batching alone.
DTYPE = os.environ.get("SERVING_BENCH_DTYPE", "complex64")
MAX_BATCH = 32
MAX_WAIT_MS = 5.0
# Continuous-batching mode: flush as soon as the queue drains.  Fusion
# then comes from requests piling up while the engine executes the
# previous batch, which is the optimal policy for closed-loop clients.
IDLE_FLUSH_MS = float(os.environ.get("SERVING_BENCH_IDLE_FLUSH_MS", "0"))
MAX_QUEUE = 2048
# Best-of-N rounds per mode: the standard guard against scheduler noise
# on shared machines (parity is asserted on every round regardless).
ROUNDS = int(os.environ.get("SERVING_BENCH_ROUNDS", "3"))
# >= 1.5x is the claim on a quiet machine (committed results); CI smoke
# only asserts batched >= unbatched because shared runners are noisy.
MIN_SPEEDUP = float(os.environ.get("SERVING_SPEEDUP_FLOOR", "1.5"))
# Scatter/routing errors show up as O(1) logit differences; the tolerance
# only needs to absorb dtype-dependent FFT chunking noise.
PARITY_ATOL = 1e-9 if DTYPE == "complex128" else 1e-3


def _build_session():
    config = DONNConfig(
        sys_size=SYS_SIZE,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=NUM_LAYERS,
        num_classes=10,
        seed=1,
    )
    model = DONN(config)
    return model, engine_compile(model, batch_size=MAX_BATCH, dtype=DTYPE)


def _make_requests(rng) -> np.ndarray:
    total = NUM_CLIENTS * REQUESTS_PER_CLIENT
    return rng.uniform(0.0, 1.0, size=(total, SYS_SIZE, SYS_SIZE))


def _percentiles(latencies) -> dict:
    array = np.asarray(latencies) * 1000.0
    return {
        "p50_latency_ms": float(np.percentile(array, 50)),
        "p99_latency_ms": float(np.percentile(array, 99)),
    }


def _run_direct(session, requests: np.ndarray):
    """No serving stack: a bare loop of single-image engine calls."""
    latencies = []
    outputs = []
    start = time.perf_counter()
    for image in requests:
        tick = time.perf_counter()
        outputs.append(session.run(image))
        latencies.append(time.perf_counter() - tick)
    elapsed = time.perf_counter() - start
    return np.stack(outputs), latencies, elapsed, None


def _run_serving(session, requests: np.ndarray, max_batch: int):
    """Closed-loop clients against the server (batching on or off)."""

    async def load():
        server = InferenceServer(
            policy=lambda: FixedWindowPolicy(
                max_batch=max_batch, max_wait_ms=MAX_WAIT_MS, idle_flush_ms=IDLE_FLUSH_MS
            ),
            max_queue=MAX_QUEUE,
        )
        server.add_model("bench", session)
        latencies = []
        outputs = [None] * len(requests)

        async def client(client_index: int):
            for turn in range(REQUESTS_PER_CLIENT):
                index = client_index * REQUESTS_PER_CLIENT + turn
                tick = time.perf_counter()
                outputs[index] = await server.submit("bench", requests[index])
                latencies.append(time.perf_counter() - tick)

        async with server:
            start = time.perf_counter()
            await asyncio.gather(*(client(i) for i in range(NUM_CLIENTS)))
            elapsed = time.perf_counter() - start
            stats = server.stats()["bench"].as_dict()
        return np.stack(outputs), latencies, elapsed, stats

    return asyncio.run(load())


def _best_of(run, *args):
    return min((run(*args) for _ in range(ROUNDS)), key=lambda result: result[2])


def _row(mode, outputs, latencies, elapsed, stats, reference, session):
    parity = float(np.abs(outputs - reference).max())
    assert parity <= PARITY_ATOL, f"{mode} results diverge from the engine: {parity:.3e}"
    row = {
        "mode": mode,
        "sys_size": SYS_SIZE,
        "clients": NUM_CLIENTS,
        "requests": len(reference),
        "images_per_sec": len(reference) / elapsed,
        **_percentiles(latencies),
        "parity_max_abs_error": parity,
        "fft_backend": session.backend_name,
        "dtype": DTYPE,
    }
    if stats is not None:
        row.update(
            max_wait_ms=MAX_WAIT_MS,
            idle_flush_ms=IDLE_FLUSH_MS,
            engine_calls=stats["batches"],
            mean_batch_size=stats["mean_batch_size"],
            largest_batch=stats["largest_batch"],
        )
    return row


def _sweep():
    rng = np.random.default_rng(SEED)
    model, session = _build_session()
    requests = _make_requests(rng)

    # Warm up FFT plans / caches on both paths before timing.
    session.run(requests[:MAX_BATCH])
    session.run(requests[0])
    reference = session.run(requests, batch_size=MAX_BATCH)

    direct = _best_of(_run_direct, session, requests)
    unbatched = _best_of(_run_serving, session, requests, 1)
    batched = _best_of(_run_serving, session, requests, MAX_BATCH)

    rows = [
        _row("sequential_direct", *direct, reference, session),
        _row("sequential_serving", *unbatched, reference, session),
        _row("dynamic_batching", *batched, reference, session),
    ]
    by_mode = {row["mode"]: row for row in rows}
    batched_row = by_mode["dynamic_batching"]
    batched_row["max_batch"] = MAX_BATCH
    batched_row["speedup_vs_sequential_serving"] = (
        batched_row["images_per_sec"] / by_mode["sequential_serving"]["images_per_sec"]
    )
    batched_row["speedup_vs_direct_loop"] = (
        batched_row["images_per_sec"] / by_mode["sequential_direct"]["images_per_sec"]
    )
    return rows


def test_serving_throughput(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    notes = (
        f"Closed-loop load: {NUM_CLIENTS} concurrent clients x {REQUESTS_PER_CLIENT} single-image "
        f"requests against a {NUM_LAYERS}-layer DONN at sys_size {SYS_SIZE} ({DTYPE} engine).  "
        "sequential_direct = bare per-image engine loop (no serving stack); sequential_serving = "
        "the server with max_batch=1 (per-request engine calls, coalescing off); dynamic_batching = "
        f"coalescing on (max_batch={MAX_BATCH}, idle-flush continuous batching).  The speedup gate "
        "compares batching on vs off through the identical serving stack; every mode's scattered "
        f"results are asserted equal to direct engine output within {PARITY_ATOL:g}."
    )
    report("Serving throughput: sequential vs dynamic batching", rows, notes)
    name = "serving_throughput_smoke" if SMOKE else "serving_throughput"
    save_results(name, rows, notes, metadata=run_metadata(SEED))

    batched = next(row for row in rows if row["mode"] == "dynamic_batching")
    assert batched["mean_batch_size"] > 1.0, "the load generator never coalesced anything"
    assert batched["speedup_vs_sequential_serving"] >= MIN_SPEEDUP, (
        f"dynamic batching speedup is {batched['speedup_vs_sequential_serving']:.2f}x over the "
        f"unbatched serving baseline, expected >= {MIN_SPEEDUP}x"
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    for line in _sweep():
        print(line)
