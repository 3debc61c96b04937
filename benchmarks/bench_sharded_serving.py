"""Sharded serving: replica groups vs the single-process server.

The PR 3/4 serving stack computes in one Python process, so one GIL (and
one core's worth of FFT throughput, numpy's pocketfft being single
threaded) caps every model.  ``repro.cluster`` moves the fused batches to
``multiprocessing`` replica workers behind a routing policy; this
benchmark measures what that buys, with the PR 4 open-loop Poisson load
generator (latency clocked from scheduled arrivals -- no coordinated
omission):

1. **Scaling sweep.**  The single-process server and an N-replica
   sharded server absorb the same arrival-rate sweep (fractions of the
   measured single-process fused-call capacity); each is scored by its
   max sustained rate under a p99 SLO.  On a host with >= 4 usable cores
   and >= 4 replicas, the gate is the issue's acceptance claim: sharded
   serving sustains >= ``SHARDED_SPEEDUP_FLOOR`` (1.5x) the
   single-process images/sec, at an equal-or-lower p99 at the
   single-process server's own best rate.  On smaller hosts (the
   committed results record ``usable_cores``) multi-process scaling is
   physically unavailable, so the sweep still runs and is recorded but
   the scaling gate relaxes to "sharding must keep serving correctly" --
   re-run on a multi-core machine to check the 1.5x claim.
2. **Asymmetric-replica routing.**  One replica is deliberately slowed
   (``handicaps={0: ...}`` -- an extra sleep per call, so the asymmetry
   is real even on one core), and ``round_robin`` vs
   ``power_of_two_choices`` absorb identical load.  Round-robin keeps
   feeding the slow replica its full share, so its tail degrades to the
   slow member; p2c routes on in-flight depth and avoids it.  Gate:
   p2c's p99 beats round-robin's by >= ``SHARDED_ASYM_P99_FLOOR``.

Run directly (``python benchmarks/bench_sharded_serving.py [--smoke]
[--replicas N] [--seed S]``) or through pytest (``pytest
benchmarks/bench_sharded_serving.py -s``).  ``--smoke`` (CI's
``cluster-smoke`` job, both py3.10 and 3.12, spawn start method) runs a
seconds-long small-size sweep gating only on correct serving.
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np

from _bench_helpers import cli_value, report, save_results
from loadgen import build_session, measure_capacity, run_metadata, run_open_loop, usable_cores
from repro.serve import FixedWindowPolicy, InferenceServer

SMOKE = bool(int(os.environ.get("SHARDED_BENCH_SMOKE", "0"))) or "--smoke" in sys.argv
#: Seed for payload content and Poisson schedules; stamped into the
#: committed results JSON together with the host core counts.
SEED = int(os.environ.get("SHARDED_BENCH_SEED", cli_value("--seed", "42")))
SYS_SIZE = int(os.environ.get("SHARDED_BENCH_SYS_SIZE", "32" if SMOKE else "64"))
NUM_LAYERS = 5
REPLICAS = int(os.environ.get("SHARDED_BENCH_REPLICAS", cli_value("--replicas", "2" if SMOKE else "4")))
#: The p99 latency budget a rate must hold to count as sustained.
SLO_MS = float(os.environ.get("SHARDED_BENCH_SLO_MS", "40"))
NUM_REQUESTS = int(os.environ.get("SHARDED_BENCH_REQUESTS", "120" if SMOKE else "1500"))
MAX_QUEUE = 8192
MIN_SUCCESS = 0.99
#: Arrival rates, as fractions of the measured *single-process* capacity.
SINGLE_FRACTIONS = (0.5,) if SMOKE else (0.5, 0.7, 0.85, 1.0)
SHARDED_FRACTIONS = (0.5, 0.8) if SMOKE else (0.5, 0.7, 0.85, 1.0, 1.3, 1.7, 2.2, 3.0)
#: The scaling gate, active only where the hardware can express it.
MIN_SPEEDUP = float(os.environ.get("SHARDED_SPEEDUP_FLOOR", "1.5"))
#: Required p99(round_robin) / p99(power_of_two_choices) under asymmetry.
ASYM_P99_FLOOR = 0.0 if SMOKE else float(os.environ.get("SHARDED_ASYM_P99_FLOOR", "1.1"))
#: Artificial slowdown of replica 0 in the asymmetry experiment.
ASYM_HANDICAP_MS = float(os.environ.get("SHARDED_BENCH_HANDICAP_MS", "25" if SMOKE else "50"))
ASYM_RATE_FRACTION = 0.5


#: The 1.5x claim needs real parallel hardware under >= 4 replicas.
SCALING_GATE_ACTIVE = not SMOKE and REPLICAS >= 4 and usable_cores() >= 4


def _policy_factory():
    """Identical batching policy everywhere: the comparison is sharding."""
    return FixedWindowPolicy(max_batch=32, max_wait_ms=2.0)


def _drive_rates(server_factory, fractions, capacity, payloads) -> dict:
    """One server absorbing the sweep; returns {fraction: LoadResult}."""

    async def drive():
        results = {}
        server = server_factory()
        async with server:
            warm = payloads[: min(64, len(payloads))]
            await asyncio.gather(
                *(server.submit("bench", image) for image in warm), return_exceptions=True
            )
            for fraction in fractions:
                results[fraction] = await run_open_loop(
                    lambda image: server.submit("bench", image),
                    payloads,
                    capacity * fraction,
                    np.random.default_rng(SEED + 1),
                )
        return results

    return asyncio.run(drive())


def _single_server(session):
    def factory():
        server = InferenceServer(policy=_policy_factory, max_queue=MAX_QUEUE)
        server.add_model("bench", session)
        return server

    return factory


def _sharded_server(session, router: str, handicaps=None):
    def factory():
        server = InferenceServer(
            policy=_policy_factory,
            max_queue=MAX_QUEUE,
            replicas=REPLICAS,
            router=router,
            cluster_options={"handicaps": handicaps} if handicaps else None,
        )
        server.add_model("bench", session)
        return server

    return factory


def _best_sustained(results: dict, capacity: float):
    """(best rate, its LoadResult, its fraction) among SLO-holding points."""
    best_rate, best_point, best_fraction = 0.0, None, None
    for fraction, result in results.items():
        if result.sustains(SLO_MS, MIN_SUCCESS) and capacity * fraction > best_rate:
            best_rate, best_point, best_fraction = capacity * fraction, result, fraction
    return best_rate, best_point, best_fraction


def _rows_for(mode: str, router: str, results: dict) -> list:
    return [
        {
            "mode": mode,
            "router": router,
            "replicas": 1 if mode == "single" else REPLICAS,
            "rate_fraction_of_capacity": fraction,
            "slo_ms": SLO_MS,
            "sustained": result.sustains(SLO_MS, MIN_SUCCESS),
            **result.row(),
        }
        for fraction, result in results.items()
    ]


def _sweep():
    import gc

    session = build_session(SYS_SIZE, NUM_LAYERS, batch_size=64)
    capacity = measure_capacity(session, batch=32, seed=SEED)
    payloads = np.random.default_rng(SEED).uniform(0.0, 1.0, size=(NUM_REQUESTS, SYS_SIZE, SYS_SIZE))

    rows = []
    gc.collect()
    gc.disable()  # GC pauses land in p99 tails; keep them out of the comparison
    try:
        single = _drive_rates(_single_server(session), SINGLE_FRACTIONS, capacity, payloads)
        sharded = _drive_rates(
            _sharded_server(session, "round_robin"), SHARDED_FRACTIONS, capacity, payloads
        )
        asym = {
            router: _drive_rates(
                _sharded_server(session, router, handicaps={0: ASYM_HANDICAP_MS / 1000.0}),
                (ASYM_RATE_FRACTION,),
                capacity,
                payloads,
            )[ASYM_RATE_FRACTION]
            for router in ("round_robin", "power_of_two_choices")
        }
    finally:
        gc.enable()

    rows.extend(_rows_for("single", "-", single))
    rows.extend(_rows_for("sharded", "round_robin", sharded))
    for router, result in asym.items():
        rows.append(
            {
                "mode": "asymmetric",
                "router": router,
                "replicas": REPLICAS,
                "handicap_ms_replica0": ASYM_HANDICAP_MS,
                "rate_fraction_of_capacity": ASYM_RATE_FRACTION,
                "slo_ms": SLO_MS,
                "sustained": result.sustains(SLO_MS, MIN_SUCCESS),
                **result.row(),
            }
        )

    single_best, single_point, single_fraction = _best_sustained(single, capacity)
    sharded_best, _, _ = _best_sustained(sharded, capacity)
    summary = {
        "mode": "summary",
        "single_completed": sum(result.completed for result in single.values()),
        "sharded_completed": sum(result.completed for result in sharded.values()),
        "total_errors": sum(
            result.errors
            for results in (single.values(), sharded.values(), asym.values())
            for result in results
        ),
        "sys_size": SYS_SIZE,
        "replicas": REPLICAS,
        "capacity_images_per_sec": capacity,
        "slo_ms": SLO_MS,
        "single_max_sustained_rps": single_best,
        "sharded_max_sustained_rps": sharded_best,
        "sharded_speedup": (sharded_best / single_best) if single_best else float("nan"),
        "scaling_gate_active": SCALING_GATE_ACTIVE,
        "asym_rr_p99_ms": asym["round_robin"].percentile(99),
        "asym_p2c_p99_ms": asym["power_of_two_choices"].percentile(99),
    }
    if asym["power_of_two_choices"].completed:
        summary["asym_p99_improvement"] = (
            asym["round_robin"].percentile(99) / asym["power_of_two_choices"].percentile(99)
        )
    # The "equal or lower p99" clause: compare tails at the single-process
    # server's own best sustained fraction (both modes swept it).
    if single_point is not None and single_fraction in sharded:
        summary["p99_at_single_best_single_ms"] = single_point.percentile(99)
        summary["p99_at_single_best_sharded_ms"] = sharded[single_fraction].percentile(99)
    rows.append(summary)
    return rows, summary


def _check(summary: dict) -> None:
    # Serving correctness gates on every host, including CI smoke: all
    # modes must answer traffic without request errors.
    assert summary["total_errors"] == 0, f"{summary['total_errors']} requests errored"
    assert summary["single_completed"] > 0, "single-process server completed nothing"
    assert summary["sharded_completed"] > 0, "sharded server completed nothing"
    if SMOKE:
        # Shared runners cannot hold a p99 claim; the latency-sensitive
        # gates below are quiet-machine / multi-core assertions only.
        return
    if ASYM_P99_FLOOR > 0.0:
        improvement = summary.get("asym_p99_improvement", 0.0)
        assert improvement >= ASYM_P99_FLOOR, (
            f"power_of_two_choices p99 under an asymmetric replica is only {improvement:.2f}x "
            f"better than round_robin (floor {ASYM_P99_FLOOR}x): "
            f"rr={summary['asym_rr_p99_ms']:.1f}ms p2c={summary['asym_p2c_p99_ms']:.1f}ms"
        )
    if SCALING_GATE_ACTIVE:
        # Sustaining the SLO at all -- let alone at a higher rate -- is a
        # claim about parallel hardware: N replicas time-slicing one core
        # can miss a 40ms p99 at any rate.  Gated with the speedup.
        assert summary["single_max_sustained_rps"] > 0.0, "single-process server sustained nothing"
        assert summary["sharded_max_sustained_rps"] > 0.0, "sharded server sustained nothing"
        speedup = summary["sharded_speedup"]
        assert speedup >= MIN_SPEEDUP, (
            f"sharded serving sustains only {speedup:.2f}x the single-process rate "
            f"(floor {MIN_SPEEDUP}x with {REPLICAS} replicas on {usable_cores()} cores)"
        )
        single_p99 = summary.get("p99_at_single_best_single_ms")
        sharded_p99 = summary.get("p99_at_single_best_sharded_ms")
        if single_p99 is not None and sharded_p99 is not None:
            assert sharded_p99 <= single_p99 * 1.05, (
                f"at the single server's best rate, sharded p99 ({sharded_p99:.1f}ms) exceeds "
                f"the single-process p99 ({single_p99:.1f}ms)"
            )


def _notes() -> str:
    return (
        f"Open-loop Poisson load against a {NUM_LAYERS}-layer DONN at sys_size {SYS_SIZE} "
        f"(complex128 engine), {NUM_REQUESTS} offered requests per point, identical "
        f"FixedWindowPolicy(max_batch=32, max_wait_ms=2) everywhere.  single = in-process "
        f"InferenceServer; sharded = InferenceServer(replicas={REPLICAS}) dispatching fused "
        "batches to spawn-start worker processes over shared memory.  A rate is 'sustained' "
        f"when p99 <= {SLO_MS}ms and >= {MIN_SUCCESS:.0%} of offered requests are answered.  "
        f"asymmetric rows slow replica 0 by {ASYM_HANDICAP_MS}ms/call and compare routing "
        "policies at the same arrival rate.  The >=1.5x scaling claim needs >= 4 usable cores "
        "and >= 4 replicas (scaling_gate_active in the summary row; metadata records the "
        "host's core counts) -- on smaller hosts the sweep is recorded without the gate."
    )


def _metadata() -> dict:
    return {
        **run_metadata(SEED),
        "replicas": REPLICAS,
        "scaling_gate_active": SCALING_GATE_ACTIVE,
        "speedup_floor": MIN_SPEEDUP,
        "asym_p99_floor": ASYM_P99_FLOOR,
    }


def test_sharded_serving(benchmark):
    rows, summary = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("Sharded serving: replica groups vs single process", rows, _notes())
    save_results("sharded_serving_smoke" if SMOKE else "sharded_serving", rows, _notes(), _metadata())
    _check(summary)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke run
    rows, summary = _sweep()
    report("Sharded serving: replica groups vs single process", rows, _notes())
    if "--no-save" not in sys.argv:
        save_results("sharded_serving_smoke" if SMOKE else "sharded_serving", rows, _notes(), _metadata())
    _check(summary)
    print(
        f"max sustained rps: single={summary['single_max_sustained_rps']:.0f}, "
        f"sharded({REPLICAS} replicas)={summary['sharded_max_sustained_rps']:.0f} "
        f"({summary['sharded_speedup']:.2f}x, gate {'on' if SCALING_GATE_ACTIVE else 'off'})"
    )
    if "asym_p99_improvement" in summary:
        print(
            f"asymmetric replica p99: round_robin={summary['asym_rr_p99_ms']:.1f}ms vs "
            f"power_of_two_choices={summary['asym_p2c_p99_ms']:.1f}ms "
            f"({summary['asym_p99_improvement']:.2f}x better)"
        )
