"""Gateway overhead: loopback HTTP serving vs in-process serving.

The gateway's promise is that putting the serving stack behind a network
front door costs protocol work (JSON codec, HTTP framing, loopback TCP)
but does not *distort* the serving behavior underneath -- same batcher,
same policies, same backpressure.  This benchmark measures that promise
with the open-loop Poisson load generator driven two ways over the same
model and the same arrival schedule:

* **in_process** -- ``submit`` calls ``InferenceServer.submit`` directly
  (the PR 4 measurement path: no wire, no codec).
* **loopback_http** -- ``submit`` is ``GatewayClient.infer`` against a
  :class:`~repro.gateway.Gateway` on an ephemeral loopback port: every
  request is a real HTTP exchange with JSON in both directions.

Reported per mode and arrival rate: p50/p95/p99 latency (clocked from
the scheduled arrival instant -- coordinated-omission-free) and achieved
images/sec.  The committed ``benchmarks/results/gateway_serving.json``
records the sys-64 comparison; its gate is the acceptance criterion that
loopback-HTTP p99 stays within ``GATEWAY_P99_FACTOR`` (default 2x) of
the in-process p99 at the same arrival rate, with zero transport errors.
``--smoke`` (or ``GATEWAY_BENCH_SMOKE=1``) shrinks the sweep for CI and
gates only on "zero errors end to end".

Run directly (``python benchmarks/bench_gateway.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_gateway.py -s``).  Note the
whole exercise shares one event loop *and* (in CI) one core between load
generator, HTTP client, gateway and engine -- the HTTP numbers price in
the codec work, which is the point.
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np

from _bench_helpers import cli_value, report, save_results
from loadgen import LoadResult, build_session, measure_capacity, run_metadata, run_open_loop
from repro.gateway import Gateway, GatewayClient, GatewayLimits
from repro.serve import InferenceServer

SMOKE = bool(int(os.environ.get("GATEWAY_BENCH_SMOKE", "0"))) or "--smoke" in sys.argv
#: Seed for payload content and the Poisson schedule; recorded in the
#: committed results JSON so a run can be reproduced exactly.
SEED = int(os.environ.get("GATEWAY_BENCH_SEED", cli_value("--seed", "42")))
SYS_SIZE = int(os.environ.get("GATEWAY_BENCH_SYS_SIZE", "32" if SMOKE else "64"))
NUM_LAYERS = 5
#: Arrival rates swept, as fractions of the *bottleneck* capacity (the
#: smaller of fused-call supply and measured HTTP round-trip throughput;
#: on one core that is always the HTTP path).  Kept below saturation on
#: purpose: the question is protocol overhead at healthy load, not which
#: mode collapses first -- an open-loop rate past what the codec can
#: carry measures queue growth, not overhead.
RATE_FRACTIONS = (0.5,) if SMOKE else (0.2, 0.3)
NUM_REQUESTS = int(os.environ.get("GATEWAY_BENCH_REQUESTS", "120" if SMOKE else "500"))
#: Repetitions per (mode, rate) point in full runs; each point reports its
#: median-p99 repetition.  The CI container is shared -- multi-hundred-ms
#: machine stalls land on *some* repetition every few runs, and a
#: single-sample p99 would hand whichever mode caught one an arbitrary
#: win or loss.  The median of five shrugs off up to two stalled reps.
NUM_REPS = 1 if SMOKE else 5
#: Acceptance gate: loopback-HTTP p99 must stay within this factor of the
#: in-process p99 at the same arrival rate (full runs only).
P99_FACTOR = float(os.environ.get("GATEWAY_P99_FACTOR", "2.0"))
MAX_BATCH = 32
#: Batching window shared by both modes -- identical fusion behavior
#: underneath is what makes the comparison about *protocol* overhead.
#: 20 ms is a throughput-leaning window (batch wide, amortize fixed
#: cost), the regime a network front door exists for; the latency-POLICY
#: trade-offs at 2 ms windows are bench_slo_serving.py's subject.
MAX_WAIT_MS = 20.0
MAX_QUEUE = 4096


def _measure_http_capacity(session) -> float:
    """Requests/sec of the full loopback HTTP round trip (closed loop).

    Eight concurrent keep-alive clients hammer one gateway for ~0.6 s;
    the achieved rate is the protocol path's supply side -- batching
    underneath fuses their requests, so this measures codec + wire +
    dispatch, not one-request-at-a-time engine latency.
    """

    async def drive():
        loop = asyncio.get_running_loop()
        server = InferenceServer(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
        server.add_model("bench", session)
        payload = np.random.default_rng(0).uniform(size=(SYS_SIZE, SYS_SIZE))
        counts = [0]
        async with Gateway(server, port=0) as gateway:
            async with GatewayClient(port=gateway.port, max_connections=16) as client:
                await client.infer("bench", payload)  # warm codec + engine
                start = loop.time()
                stop = start + 0.6

                async def hammer():
                    while loop.time() < stop:
                        await client.infer("bench", payload)
                        counts[0] += 1

                await asyncio.gather(*(hammer() for _ in range(8)))
                return counts[0] / (loop.time() - start)

    return asyncio.run(drive())


def _run_in_process(session, rate_rps: float, payloads) -> LoadResult:
    async def drive():
        server = InferenceServer(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
        server.add_model("bench", session)
        async with server:
            warm = payloads[: min(32, len(payloads))]
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


def _run_loopback_http(session, rate_rps: float, payloads) -> LoadResult:
    async def drive():
        server = InferenceServer(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
        server.add_model("bench", session)
        limits = GatewayLimits(max_connections=128, max_inflight=MAX_QUEUE)
        async with Gateway(server, port=0, limits=limits) as gateway:
            async with GatewayClient(port=gateway.port, max_connections=64) as client:
                warm = payloads[: min(32, len(payloads))]
                await asyncio.gather(
                    *(client.infer("bench", image) for image in warm), return_exceptions=True
                )
                return await run_open_loop(
                    lambda image: client.infer("bench", image),
                    payloads,
                    rate_rps,
                    np.random.default_rng(SEED + 1),
                )

    return asyncio.run(drive())


def _sweep():
    import gc

    session = build_session(SYS_SIZE, NUM_LAYERS, batch_size=MAX_BATCH)
    engine_capacity = measure_capacity(session, batch=MAX_BATCH, seed=0)
    http_capacity = _measure_http_capacity(session)
    bottleneck = min(engine_capacity, http_capacity)
    rng = np.random.default_rng(SEED)
    # Quantized to 3 decimals: inference payloads are images (8-bit data
    # scaled to [0, 1]), so the wire carries short float literals -- not
    # the 17-significant-digit worst case of raw uniform doubles, which
    # would quadruple the JSON text for precision no camera produces.
    payloads = np.round(rng.uniform(0.0, 1.0, size=(NUM_REQUESTS, SYS_SIZE, SYS_SIZE)), 3)

    modes = {"in_process": _run_in_process, "loopback_http": _run_loopback_http}
    rows = []
    results = {}
    all_reps = []
    gc.collect()
    gc.disable()
    try:
        # One unmeasured mini-run per mode first: the first asyncio.run of
        # a mode pays one-time costs (executor thread spin-up, allocator
        # growth) that otherwise land as a fake p99 outlier in whichever
        # point happens to run first.
        for runner in modes.values():
            runner(session, bottleneck * RATE_FRACTIONS[0], payloads[:40])
        for fraction in RATE_FRACTIONS:
            rate = bottleneck * fraction
            for mode, runner in modes.items():
                reps = [runner(session, rate, payloads) for _ in range(NUM_REPS)]
                all_reps.extend((mode, fraction, rep) for rep in reps)
                result = sorted(reps, key=lambda r: r.percentile(99))[NUM_REPS // 2]
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

    summary = {
        "mode": "summary",
        "sys_size": SYS_SIZE,
        "num_layers": NUM_LAYERS,
        "engine_capacity_images_per_sec": engine_capacity,
        "http_capacity_rps": http_capacity,
        "p99_factor_limit": P99_FACTOR,
    }
    for fraction in RATE_FRACTIONS:
        in_proc = results[("in_process", fraction)]
        http = results[("loopback_http", fraction)]
        if in_proc.completed and http.completed:
            summary[f"p99_overhead_factor_at_{fraction}"] = http.percentile(99) / in_proc.percentile(99)
            summary[f"http_images_per_sec_at_{fraction}"] = http.achieved_rate
    rows.append(summary)
    return rows, results, summary, all_reps


def _check(results, summary, all_reps) -> None:
    for mode, fraction, rep in all_reps:
        assert rep.errors == 0, (
            f"{mode} at {fraction}x capacity hit {rep.errors} transport errors"
        )
        assert rep.completed > 0, f"{mode} at {fraction}x capacity completed nothing"
    if SMOKE:
        return
    for fraction in RATE_FRACTIONS:
        factor = summary.get(f"p99_overhead_factor_at_{fraction}")
        assert factor is not None and factor <= P99_FACTOR, (
            f"loopback-HTTP p99 is {factor:.2f}x the in-process p99 at {fraction}x capacity "
            f"(limit {P99_FACTOR}x)"
        )


def _notes() -> str:
    return (
        f"Open-loop Poisson load against a {NUM_LAYERS}-layer DONN at sys_size {SYS_SIZE} "
        f"(complex128 engine), {NUM_REQUESTS} offered requests per point, identical arrival "
        f"schedules per mode; each point reports the median-p99 repetition of {NUM_REPS} "
        "run(s) so a one-off machine stall on the shared CI container cannot decide the "
        "comparison.  in_process submits straight into InferenceServer; loopback_http "
        "drives the same server through Gateway + GatewayClient over 127.0.0.1 (real HTTP/1.1, "
        "JSON both ways, pooled keep-alive connections).  Arrival rates are fractions of the "
        "bottleneck capacity (min of fused-call supply and measured closed-loop HTTP round-trip "
        "throughput) so the open-loop comparison runs at load both paths can carry.  Latency is "
        "clocked from the scheduled arrival instant (coordinated-omission-free); the summary row "
        f"records the p99 overhead factor, gated at {P99_FACTOR}x by the acceptance criterion.  "
        "Generator, client, gateway and engine share one event loop and (in CI) one core, so "
        "HTTP numbers price in all codec work."
    )


def test_gateway_serving(benchmark):
    rows, results, summary, all_reps = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("Gateway serving: loopback HTTP vs in-process", rows, _notes())
    save_results(
        "gateway_serving_smoke" if SMOKE else "gateway_serving",
        rows,
        _notes(),
        metadata=run_metadata(SEED),
    )
    _check(results, summary, all_reps)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke run
    rows, results, summary, all_reps = _sweep()
    report("Gateway serving: loopback HTTP vs in-process", rows, _notes())
    if "--no-save" not in sys.argv:
        save_results(
            "gateway_serving_smoke" if SMOKE else "gateway_serving",
            rows,
            _notes(),
            metadata=run_metadata(SEED),
        )
    _check(results, summary, all_reps)
    for key, value in summary.items():
        if key.startswith("p99_overhead_factor"):
            print(f"{key}: {value:.2f}x")
