"""The repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_sys200 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: half the window untraced, half
with the benchmark's spans on (their difference is the tracing
overhead), then the layer probes that give every per-layer metric.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).

The command is a watchdog: it runs the workload in a child process in a
session of its own and kills that whole process group if the workload
overruns :data:`WALL_LIMIT_S`, reporting the run as failed instead of
hanging.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL_LIMIT_S = 170.0

#: ``serve_http_sys64`` runs and is measured like the others, but is not
#: among the workloads BENCHMARK.json gates: on a 2-vCPU host its latency
#: swings with host contention far past any bound (see README.md).
WORKLOADS = ("train_sys200", "emulate_sys200", "serve_http_sys64")

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "error_ratio": "1",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER = {
    "engine.run_b1_ms": ("ms", "lower", "latency_p50_ms on serve_http_sys64"),
    "engine.run_b64_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.fft_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.ifft_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.mul_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.nonlinear_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.intensity_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.readout_ms": ("ms", "lower", "images_per_s on emulate_sys200"),
    "engine.op.detector_operator_ms": ("ms", "lower", "latency_p50_ms on serve_http_sys64"),
    "engine.fft_calls_per_image": ("count", "lower", "images_per_s on emulate_sys200"),
    "engine.bytes_per_image": ("B_computed", "lower", "images_per_s on emulate_sys200"),
    "engine.compile_s": ("s", "lower", "setup_s on emulate_sys200 and serve_http_sys64"),
    "autograd.forward_ms": ("ms", "lower", "images_per_s on train_sys200"),
    "autograd.backward_ms": ("ms", "lower", "images_per_s on train_sys200"),
    "autograd.optim_step_ms": ("ms", "lower", "images_per_s on train_sys200"),
    "layers.diffractive_forward_ms": ("ms", "lower", "images_per_s on train_sys200"),
    "models.build_s": ("s", "lower", "setup_s on train_sys200"),
    "serve.submit_p50_ms": ("ms", "lower", "latency_p50_ms and latency_p99_ms on serve_http_sys64"),
    "serve.queue_wait_ms": ("ms", "lower", "latency_p50_ms and latency_p99_ms on serve_http_sys64"),
    "serve.mean_batch_size": ("req/batch", "higher", "latency_p50_ms and latency_p99_ms on serve_http_sys64"),
    "serve.batches": ("count", "lower", "latency_p50_ms and latency_p99_ms on serve_http_sys64"),
    "serve.rejected": ("count", "lower", "latency_p50_ms and latency_p99_ms on serve_http_sys64"),
    "cluster.infer_b1_ms": ("ms", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "cluster.transport_overhead_ms": ("ms", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "cluster.restarts": ("count", "lower", "error_ratio on serve_http_sys64"),
    "cluster.retries": ("count", "lower", "error_ratio on serve_http_sys64"),
    "cluster.worker_start_s": ("s", "lower", "setup_s on serve_http_sys64"),
    "gateway.decode_us": ("us", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "gateway.encode_us": ("us", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "gateway.request_bytes": ("B", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "gateway.response_bytes": ("B", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "gateway.overhead_ms": ("ms", "lower", "latency_p50_ms and images_per_s on serve_http_sys64"),
    "store.publish_s": ("s", "lower", "setup_s on serve_http_sys64"),
    "store.load_s": ("s", "lower", "setup_s on serve_http_sys64"),
    "loadgen.lateness_p99_ms": ("ms", "lower", "validity check of serve_http_sys64 latencies"),
    "loadgen.client_encode_us": ("us", "lower", "validity check of serve_http_sys64 latencies"),
    "trace.overhead_pct": ("%", "lower", "validity check: traced minus untraced, this workload"),
    "trace.coverage_ratio": ("1", "higher", "validity check: named-hop self time over untraced latency_p50_ms"),
}

#: The spans whose self times make up each workload's budget (the root
#: span's own self time is what no named hop explains).
BUDGET = {
    "train_sys200": (
        "train.step",
        (
            "autograd.forward",
            "layers.diffractive",
            "optics.propagate",
            "layers.detector",
            "autograd.loss",
            "autograd.backward",
            "autograd.optim_step",
        ),
    ),
    "emulate_sys200": ("emulate.chunk", ("engine.run",)),
    "serve_http_sys64": (
        "serve.request",
        (
            "loadgen.client_encode",
            "gateway.request",
            "gateway.decode",
            "serve.submit",
            "cluster.infer",
            "engine.compute",
            "gateway.encode",
        ),
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Watchdog (the process the command starts)
# ---------------------------------------------------------------------- #
def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait (bounded) until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def watchdog(argv) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (ROOT / "src", ROOT / "benchmarks", HERE))
    env["TMPDIR"] = str(work / "tmp")  # keep every temporary file inside the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--worker"],
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=WALL_LIMIT_S)
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.wait()
        print(f"perfbench: workload overran its {WALL_LIMIT_S:.0f}s wall-time limit; killed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if child.poll() is None:  # interrupted while waiting
            _kill_group(child.pid)
    _kill_group(child.pid)  # anything the workload left behind
    return code


# ---------------------------------------------------------------------- #
# Worker (the child that measures)
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not args.worker:
        return watchdog(argv)
    import measure

    return measure.run(args, END_TO_END, PER_LAYER, BUDGET)


if __name__ == "__main__":
    sys.exit(main())
