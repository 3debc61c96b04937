"""Elastic autoscaling under step/ramp Poisson traces: iso-latency throughput per core.

``repro.cluster.autoscale`` grows and shrinks a replica group to hold a
p99 budget at minimum process count.  The right scorecard for that is
iso-latency throughput per core: at a fixed latency budget, how much
throughput does each worker *process* deliver?  A fixed fleet sized for
the peak wastes processes all night; the autoscaler should match its
throughput during the peak while spending far fewer process-seconds off
peak.

Three scenarios, all against the same model with an *asymmetric* fleet
(replica 0 carries a per-call handicap, so adding a clean replica has
observable latency consequences even on one core):

1. **Autoscaled step.**  A step-shaped Poisson trace (base -> sudden
   sustained peak -> base tail) drives ``InferenceServer(autoscale=...)``
   starting at one replica.  The step should trigger scale-up, the tail
   should drain the extra replicas back down (drain-before-terminate:
   zero request errors throughout).  The peak is reported as two
   sub-phases -- ``surge`` (contains the scale-up transient) and
   ``steady`` (post-convergence, where the p99 budget claim lives).
   Fleet size is sampled continuously; each phase reports achieved rate,
   p99, mean fleet, and rate per process (iso-latency throughput per
   core).
2. **Fixed-at-cap baseline.**  The identical trace against a fixed
   ``replicas=max`` server: the peak-sized fleet the autoscaler is
   supposed to beat on per-core efficiency off peak.
3. **Autoscaled ramp.**  A ramp up / ramp down trace
   (``loadgen.ramp_schedule``) exercises gradual growth and shedding.

Arrival rates are fractions of the *served* capacity of the starting
fleet (the highest paced rate one handicapped replica holds at half the
latency budget through the full submit -> batcher -> IPC path), not of
the raw fused-call rate -- the serving path, not the kernel, is what the
autoscaler defends.

Gates: every scenario must answer its traffic with **zero request
errors** on every host (drain-before-terminate is a correctness claim).
Off smoke, the structural iso gate applies: during the base phase the
autoscaler must hold >= ``AUTOSCALE_ISO_FLOOR`` x the fixed fleet's
throughput per process.  The *convergence* claims (scale-up fires,
steady-peak p99 back under budget, fleet sheds to the floor) are latency
claims about parallel hardware, active only with >= 4 usable cores
(``scaling_gate_active`` in the summary; PR 5 precedent) -- on smaller
hosts the trace still runs and is recorded honestly.

Run directly (``python benchmarks/bench_autoscale.py [--smoke] [--seed S]``)
or through pytest.  ``--smoke`` is CI's seconds-long correctness run.
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np

from _bench_helpers import cli_value, report, save_results
from loadgen import build_session, measure_capacity, ramp_schedule, run_metadata, run_open_loop, usable_cores
from repro.serve import FixedWindowPolicy, InferenceServer

SMOKE = bool(int(os.environ.get("AUTOSCALE_BENCH_SMOKE", "0"))) or "--smoke" in sys.argv
SEED = int(os.environ.get("AUTOSCALE_BENCH_SEED", cli_value("--seed", "42")))
#: sys_size 64 even for smoke: at small system sizes the fused-call rate
#: outruns anything the per-request serving path can absorb, and the
#: capacity probe would saturate on asyncio overhead instead of compute.
SYS_SIZE = int(os.environ.get("AUTOSCALE_BENCH_SYS_SIZE", "64"))
NUM_LAYERS = 5
#: Fleet bounds for the autoscaled scenarios (and the fixed baseline's size).
MAX_REPLICAS = int(os.environ.get("AUTOSCALE_BENCH_MAX_REPLICAS", "2" if SMOKE else "4"))
#: The p99 budget the autoscaler defends.  The clustered path (batch
#: window + IPC + replica 0's handicap) has a p99 floor around 40-60ms
#: even when idle, so the budget sits well above it and the scale-down
#: threshold (low_fraction x budget) comfortably clears the floor.
SLO_MS = float(os.environ.get("AUTOSCALE_BENCH_SLO_MS", "150"))
#: Per-call slowdown of replica 0: the asymmetric member.
HANDICAP_MS = float(os.environ.get("AUTOSCALE_BENCH_HANDICAP_MS", "10"))
MAX_QUEUE = 8192
MIN_SUCCESS = 0.99
#: Arrival rates as fractions of the starting fleet's *served* capacity
#: (the highest paced rate one handicapped replica holds at half the
#: budget): the base must be comfortable for that replica, the peak must
#: overload it (so the step always fires the scaler) while staying
#: absorbable by the capped fleet on parallel hardware.
BASE_FRACTION = 0.5
PEAK_FRACTION = 2.0
#: Phase durations (seconds): base -> surge -> steady -> tail.  The tail
#: is long enough for the down-cooldown ladder to shed back to the floor.
PHASE_SECONDS = (1.0, 1.0, 1.5, 2.5) if SMOKE else (3.0, 2.0, 4.0, 12.0)
RAMP_SECONDS = 2.0 if SMOKE else 5.0
#: Structural iso gate (off smoke): base-phase throughput per process,
#: autoscaled vs fixed-at-cap.
ISO_FLOOR = float(os.environ.get("AUTOSCALE_ISO_FLOOR", "1.3"))

#: Convergence claims need real parallel hardware (PR 5 precedent).
SCALING_GATE_ACTIVE = not SMOKE and MAX_REPLICAS >= 2 and usable_cores() >= 4

AUTOSCALE = {
    "slo_p99_ms": SLO_MS,
    "min_replicas": 1,
    "max_replicas": MAX_REPLICAS,
    "interval_s": 0.1,
    "high_fraction": 0.9,
    "low_fraction": 0.5,
    "up_cooldown_s": 0.8,
    "down_cooldown_s": 1.0 if SMOKE else 1.5,
    "min_samples": 16,
    "stats_window": 128,
    # Group-level in_flight counts dispatched fused batches, and the
    # dispatch semaphore lets up to max_replicas of them stack on one
    # replica -- so a per-replica depth threshold below that cap fires on
    # pipelining alone.  Park it above the cap: this run isolates the
    # latency trigger.
    "max_inflight_per_replica": 6.0,
}


def _policy_factory():
    return FixedWindowPolicy(max_batch=32, max_wait_ms=2.0)


def _server(session, autoscale):
    """One serving topology per scenario, same policy and handicap everywhere.

    ``autoscale`` is the autoscale options dict for the elastic scenarios
    (the fleet starts at its ``min_replicas``) or None for the fixed
    ``replicas=MAX_REPLICAS`` baseline.  Either way the model lives in a
    real :class:`ReplicaGroup` -- an autoscale config forces one even at
    a single starting replica -- so replica 0's handicap and the IPC hop
    are identical across scenarios.
    """
    server = InferenceServer(
        policy=_policy_factory,
        max_queue=MAX_QUEUE,
        replicas=1 if autoscale is not None else MAX_REPLICAS,
        router="least_loaded",
        cluster_options={"handicaps": {0: HANDICAP_MS / 1000.0}, "call_timeout_s": 60.0},
        autoscale=autoscale,
    )
    server.add_model("bench", session)
    return server


def _served_capacity(session, raw_capacity: float) -> float:
    """Served capacity of the starting fleet: the highest paced arrival
    rate one handicapped replica holds at **half** the p99 budget through
    the full submit -> batcher -> IPC -> fused-call path.

    A saturation burst would overstate it (deep queues coalesce into
    maximally-full batches), so this climbs a staircase of open-loop
    rates and keeps the last one that sustains ``SLO_MS / 2``.
    """
    pool = np.random.default_rng(SEED + 7).uniform(0.0, 1.0, size=(64, SYS_SIZE, SYS_SIZE))
    seconds = 0.6 if SMOKE else 1.2

    async def probe():
        best = None
        # The starting fleet exactly: one handicapped cluster replica
        # (max_replicas=1 pins it; the slow interval idles the loop).
        server = _server(session, {**AUTOSCALE, "max_replicas": 1, "interval_s": 60.0})
        async with server:
            warm = [server.submit("bench", pool[i % len(pool)]) for i in range(64)]
            await asyncio.gather(*warm, return_exceptions=True)
            for fraction in (0.15, 0.25, 0.4, 0.55, 0.7, 0.85):
                rate = fraction * raw_capacity
                count = max(64, int(rate * seconds))
                result = await run_open_loop(
                    lambda image: server.submit("bench", image),
                    [pool[i % len(pool)] for i in range(count)],
                    rate,
                    np.random.default_rng(SEED + 8),
                )
                if not result.sustains(SLO_MS / 2, MIN_SUCCESS):
                    break
                best = rate
        return best

    best = asyncio.run(probe())
    if best is None:
        raise RuntimeError(
            f"one replica sustained no probed rate at p99 <= {SLO_MS / 2:.0f}ms; "
            "the host is too loaded for a meaningful trace"
        )
    return best


def _fleet_of(server) -> int:
    stats = server.stats().get("bench")
    scaler = getattr(stats, "autoscaler", None) if stats is not None else None
    if scaler:
        return int(scaler["fleet"])
    return len(stats.replicas) if stats is not None and stats.replicas else 1


async def _sample_fleet(server, samples: list, stop: asyncio.Event) -> None:
    while not stop.is_set():
        samples.append(_fleet_of(server))
        try:
            await asyncio.wait_for(stop.wait(), 0.1)
        except asyncio.TimeoutError:
            pass


async def _run_phase(server, payload_pool, *, rate=None, rng=None, offsets=None, seconds=None):
    """One load segment with continuous fleet sampling."""
    count = len(offsets) if offsets is not None else max(8, int(rate * seconds))
    payloads = [payload_pool[i % len(payload_pool)] for i in range(count)]
    samples: list = []
    stop = asyncio.Event()
    sampler = asyncio.get_running_loop().create_task(_sample_fleet(server, samples, stop))
    try:
        result = await run_open_loop(
            lambda image: server.submit("bench", image),
            payloads,
            rate,
            rng,
            offsets=offsets,
        )
    finally:
        stop.set()
        await sampler
    samples = samples or [_fleet_of(server)]
    return result, {
        "fleet_mean": float(np.mean(samples)),
        "fleet_max": int(np.max(samples)),
        "fleet_final": int(samples[-1]),
    }


def _phase_row(scenario, phase, result, fleet):
    per_core = result.achieved_rate / fleet["fleet_mean"] if fleet["fleet_mean"] else 0.0
    return {
        "scenario": scenario,
        "phase": phase,
        "slo_ms": SLO_MS,
        "sustained": result.sustains(SLO_MS, MIN_SUCCESS),
        **result.row(),
        **fleet,
        "per_core_rps": per_core,  # iso-latency throughput per process
    }


async def _run_step(session, served: float, *, autoscale: bool):
    """The step trace (base -> surge -> steady -> tail) against one server."""
    base, peak = BASE_FRACTION * served, PEAK_FRACTION * served
    rates = {"base": base, "surge": peak, "steady": peak, "tail": base}
    pool = np.random.default_rng(SEED).uniform(0.0, 1.0, size=(256, SYS_SIZE, SYS_SIZE))
    rows = []
    server = _server(session, dict(AUTOSCALE) if autoscale else None)
    scenario = "autoscale-step" if autoscale else "fixed-step"
    async with server:
        warm = [server.submit("bench", pool[i]) for i in range(64)]
        await asyncio.gather(*warm, return_exceptions=True)
        for index, (phase, seconds) in enumerate(zip(rates, PHASE_SECONDS)):
            result, fleet = await _run_phase(
                server,
                pool,
                rate=rates[phase],
                rng=np.random.default_rng(SEED + 10 + index),
                seconds=seconds,
            )
            rows.append(_phase_row(scenario, phase, result, fleet))
        stats = server.stats()["bench"]
        snapshot = dict(stats.autoscaler or {})
    return rows, snapshot


async def _run_ramp(session, served: float):
    """Ramp up then down against the autoscaled server (one open-loop run)."""
    low, high = BASE_FRACTION * served, PEAK_FRACTION * served
    rng = np.random.default_rng(SEED + 99)
    up = ramp_schedule(low, high, RAMP_SECONDS, rng, steps=6)
    down = ramp_schedule(high, low, RAMP_SECONDS, rng, steps=6)
    offsets = np.concatenate([up, RAMP_SECONDS + down])
    pool = np.random.default_rng(SEED + 1).uniform(0.0, 1.0, size=(256, SYS_SIZE, SYS_SIZE))
    server = _server(session, dict(AUTOSCALE))
    async with server:
        warm = [server.submit("bench", pool[i]) for i in range(64)]
        await asyncio.gather(*warm, return_exceptions=True)
        result, fleet = await _run_phase(server, pool, offsets=offsets)
        stats = server.stats()["bench"]
        snapshot = dict(stats.autoscaler or {})
    return [_phase_row("autoscale-ramp", "ramp", result, fleet)], snapshot


def _sweep():
    import gc

    session = build_session(SYS_SIZE, NUM_LAYERS, batch_size=64)
    raw = measure_capacity(session, batch=32, seed=SEED)
    served = _served_capacity(session, raw)

    gc.collect()
    gc.disable()  # GC pauses land in p99 tails
    try:
        auto_rows, auto_snapshot = asyncio.run(_run_step(session, served, autoscale=True))
        fixed_rows, _ = asyncio.run(_run_step(session, served, autoscale=False))
        ramp_rows, ramp_snapshot = asyncio.run(_run_ramp(session, served))
    finally:
        gc.enable()

    rows = auto_rows + fixed_rows + ramp_rows
    by_phase = {(row["scenario"], row["phase"]): row for row in rows}
    auto_base = by_phase[("autoscale-step", "base")]
    fixed_base = by_phase[("fixed-step", "base")]
    auto_steady = by_phase[("autoscale-step", "steady")]
    auto_tail = by_phase[("autoscale-step", "tail")]
    summary = {
        "scenario": "summary",
        "sys_size": SYS_SIZE,
        "raw_capacity_images_per_sec": raw,
        "served_capacity_rps": served,
        "slo_ms": SLO_MS,
        "max_replicas": MAX_REPLICAS,
        "handicap_ms_replica0": HANDICAP_MS,
        "total_offered": sum(row["offered"] for row in rows),
        "total_completed": sum(row["completed"] for row in rows),
        "total_errors": sum(row["errors"] for row in rows),
        "scale_ups": auto_snapshot.get("scale_ups", 0),
        "scale_downs": auto_snapshot.get("scale_downs", 0),
        "nan_holds": auto_snapshot.get("nan_holds", 0),
        "peak_fleet_max": max(auto_steady["fleet_max"], by_phase[("autoscale-step", "surge")]["fleet_max"]),
        "tail_fleet_final": auto_tail["fleet_final"],
        "steady_p99_ms": auto_steady["p99_latency_ms"],
        "iso_base_autoscale_per_core_rps": auto_base["per_core_rps"],
        "iso_base_fixed_per_core_rps": fixed_base["per_core_rps"],
        "iso_per_core_ratio": (
            auto_base["per_core_rps"] / fixed_base["per_core_rps"]
            if fixed_base["per_core_rps"]
            else float("nan")
        ),
        "ramp_scale_ups": ramp_snapshot.get("scale_ups", 0),
        "ramp_fleet_max": by_phase[("autoscale-ramp", "ramp")]["fleet_max"],
        "ramp_fleet_final": by_phase[("autoscale-ramp", "ramp")]["fleet_final"],
        "scaling_gate_active": SCALING_GATE_ACTIVE,
    }
    rows.append(summary)
    return rows, summary


def _check(summary: dict) -> None:
    # Correctness gates on every host: elastic membership changes (spawn,
    # drain-before-terminate, close) must never error a request.
    assert summary["total_errors"] == 0, f"{summary['total_errors']} requests errored"
    assert summary["total_completed"] > 0, "no traffic completed"
    assert summary["peak_fleet_max"] <= MAX_REPLICAS, (
        f"fleet grew past the cap: {summary['peak_fleet_max']} > {MAX_REPLICAS}"
    )
    assert summary["ramp_fleet_max"] <= MAX_REPLICAS, "ramp fleet grew past the cap"
    if SMOKE:
        return
    # The peak exceeds one handicapped replica's served capacity by
    # construction, so the step must fire the scaler on any host.
    assert summary["scale_ups"] >= 1, "the step never triggered a scale-up"
    # Structural iso gate: off peak the autoscaler holds its throughput
    # with ~1 process while the fixed fleet spreads it over MAX_REPLICAS.
    ratio = summary["iso_per_core_ratio"]
    assert ratio >= ISO_FLOOR, (
        f"base-phase iso-latency throughput per core: autoscaled is only {ratio:.2f}x the "
        f"fixed-at-{MAX_REPLICAS} fleet (floor {ISO_FLOOR}x)"
    )
    if SCALING_GATE_ACTIVE:
        # Convergence: the steady peak holds the budget and the tail
        # sheds the extra replicas back to the floor.
        assert summary["scale_downs"] >= 1, "the tail never shed a replica"
        assert summary["tail_fleet_final"] == 1, (
            f"fleet did not shed back to the floor: {summary['tail_fleet_final']} replicas"
        )
        assert summary["steady_p99_ms"] <= SLO_MS, (
            f"steady-peak p99 {summary['steady_p99_ms']:.1f}ms never converged under the "
            f"{SLO_MS:.0f}ms budget"
        )


def _notes() -> str:
    return (
        f"Step/ramp open-loop Poisson traces against a {NUM_LAYERS}-layer DONN at sys_size "
        f"{SYS_SIZE} with an asymmetric fleet (replica 0 slowed {HANDICAP_MS}ms/call).  "
        f"autoscale-step starts at 1 replica under AutoscaleConfig(slo_p99_ms={SLO_MS:.0f}, "
        f"max_replicas={MAX_REPLICAS}); fixed-step drives the identical trace into a fixed "
        f"replicas={MAX_REPLICAS} fleet.  Rates are fractions of the starting fleet's "
        f"*served* capacity (highest paced rate 1 handicapped replica holds at p99 <= "
        f"{SLO_MS / 2:.0f}ms through the full serving path): base={BASE_FRACTION}x, "
        f"peak={PEAK_FRACTION}x split into surge (scale-up "
        "transient) and steady (post-convergence) sub-phases.  per_core_rps = achieved rate "
        "/ mean sampled fleet size -- the iso-latency throughput per process.  Gates: zero "
        "request errors everywhere (drain-before-terminate correctness); off smoke, the "
        f"step must fire >= 1 scale-up and autoscaled base-phase per_core_rps must be >= "
        f"{ISO_FLOOR}x fixed; convergence claims (steady-peak p99 under budget, tail sheds "
        "to 1) need >= 4 usable cores (scaling_gate_active) -- on smaller hosts the trace "
        "is recorded without them."
    )


def _metadata() -> dict:
    return {
        **run_metadata(SEED),
        "max_replicas": MAX_REPLICAS,
        "scaling_gate_active": SCALING_GATE_ACTIVE,
        "iso_floor": ISO_FLOOR,
        "autoscale_config": dict(AUTOSCALE),
    }


def test_autoscale(benchmark):
    rows, summary = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("Autoscaling: step/ramp traces, iso-latency throughput per core", rows, _notes())
    save_results("autoscale_smoke" if SMOKE else "autoscale", rows, _notes(), _metadata())
    _check(summary)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke run
    rows, summary = _sweep()
    report("Autoscaling: step/ramp traces, iso-latency throughput per core", rows, _notes())
    if "--no-save" not in sys.argv:
        save_results("autoscale_smoke" if SMOKE else "autoscale", rows, _notes(), _metadata())
    _check(summary)
    print(
        f"step: scale_ups={summary['scale_ups']} scale_downs={summary['scale_downs']} "
        f"peak_fleet={summary['peak_fleet_max']} tail_fleet={summary['tail_fleet_final']} "
        f"steady_p99={summary['steady_p99_ms']:.1f}ms (budget {SLO_MS:.0f}ms, "
        f"gate {'on' if SCALING_GATE_ACTIVE else 'off'})"
    )
    print(
        f"iso-latency throughput per core (base phase): autoscaled="
        f"{summary['iso_base_autoscale_per_core_rps']:.0f} rps/proc vs fixed-at-"
        f"{MAX_REPLICAS}={summary['iso_base_fixed_per_core_rps']:.0f} rps/proc "
        f"({summary['iso_per_core_ratio']:.2f}x)"
    )
