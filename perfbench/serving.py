"""The deploy path: ``serve_http_sys64``, and the layer probes of
``store``, ``cluster``, ``serve``, ``gateway`` and ``loadgen``.

A 5-layer sys-64 linear DONN is published to a temporary ``ModelStore``
and served, by its ``name@v1`` selector, on a one-replica
``ReplicaGroup`` (``LocalTransport``) behind ``InferenceServer`` and the
HTTP ``Gateway``.  Gateway, batcher and replica group live in a server
process of their own, spawned from :func:`server_main`; the generator in
the benchmark process drives it over loopback HTTP with JSON bodies, as
any client would.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from common import (
    PARITY_ATOL,
    WORK_DIR,
    Span,
    Tracer,
    median,
    now,
    peak_rss_mb_of,
    peak_rss_mb_self,
    percentile,
    time_calls,
)
from loadgen import poisson_schedule, run_open_loop, usable_cores
from repro import DONN, DONNConfig
from repro.cluster import ReplicaGroup
from repro.engine import compile as engine_compile
from repro.gateway import Gateway, GatewayClient, GatewayLimits, codec
from repro.serve import InferenceServer
from repro.store import ModelStore

SERVE_CONFIG = DONNConfig(
    sys_size=64,
    pixel_size=36e-6,
    distance=0.1,
    wavelength=532e-9,
    num_layers=5,
    num_classes=10,
    seed=1,
)
MODEL_NAME = "sys64"
SELECTOR = f"{MODEL_NAME}@v1"
#: The fixed open-loop arrival rate: about a quarter of the closed-loop
#: capacity measured on a 2-core host (~195 requests/s), so latency is
#: read at healthy load rather than at saturation.
RATE_RPS = 42.0
#: Share of the measured window spent in the open-loop phase (at 30 s,
#: 1008 requests: ten samples beyond the p99); the rest is the
#: closed-loop capacity phase.
OPEN_SHARE = 0.8
#: The closed-loop phase counts completions per window of this length
#: and reports the median window's rate.
CAPACITY_WINDOW_S = 1.0
MAX_BATCH = 32
MAX_WAIT_MS = 2.0
MAX_QUEUE = 4096
POOL = 64
#: Wall-time limits for talking to the server process.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def serve_model() -> DONN:
    return DONN(SERVE_CONFIG)


def payload_pool(seed: int) -> np.ndarray:
    """Request images from ``seed``, quantized to 3 decimals as 8-bit
    camera data would be, so a body carries short float literals."""
    rng = np.random.default_rng(seed)
    size = SERVE_CONFIG.sys_size
    return np.round(rng.uniform(0.0, 1.0, size=(POOL, size, size)), 3)


def fresh_store_dir() -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)).resolve()


class WrongAnswer(Exception):
    """Logits that differ from ``compile()`` by more than the parity tolerance."""


# ---------------------------------------------------------------------- #
# The server process
# ---------------------------------------------------------------------- #
def server_main(conn, store_dir: str, run_id: Optional[str]) -> None:
    """Entry point of the spawned server process.

    Answers ``("ready", port)`` once the gateway listens and its replica
    has booted, then serves until ``"stop"`` arrives or the generator's
    end of the pipe closes, and answers ``("stopped", report)``.
    """
    asyncio.run(_serve(conn, store_dir, run_id))


def _wait_for_stop(conn) -> None:
    try:
        while conn.recv() != "stop":
            pass
    except EOFError:
        pass


def _instrument_server(tracer: Tracer, server, group) -> None:
    """Record spans around the calls the gateway makes into each layer."""
    import repro.gateway.routes as routes
    import repro.gateway.server as gateway_server

    dispatch = gateway_server.dispatch

    async def traced_dispatch(gateway, request):
        with tracer.span("gateway.request", parent=request.headers.get("x-request-id")):
            return await dispatch(gateway, request)

    gateway_server.dispatch = traced_dispatch
    routes.decode_infer_payload = tracer.wrap(routes.decode_infer_payload, "gateway.decode")
    routes.json_response = tracer.wrap(routes.json_response, "gateway.encode")
    server.submit = tracer.wrap_async(server.submit, "serve.submit")
    infer_sync = group.infer_sync

    def traced_infer_sync(batch, obs=None):
        detail = obs if obs is not None else {}
        with tracer.span("cluster.infer") as span_id:
            out = infer_sync(batch, obs=detail)
            end = now()
        if detail.get("compute_s"):
            # The worker reports its compute time, not its clock: anchor
            # the engine span at the end of the dispatch window.
            tracer.record("engine.compute", end - detail["compute_s"], end, parent=span_id)
        return out

    group.infer_sync = traced_infer_sync


async def _serve(conn, store_dir: str, run_id: Optional[str]) -> None:
    tracer = Tracer(run_id) if run_id else None
    store = ModelStore(store_dir)
    group = ReplicaGroup(store.ref(SELECTOR), replicas=1, name=MODEL_NAME)
    server = InferenceServer(store=store, max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
    server.add_model(MODEL_NAME, group)
    gateway = Gateway(server, port=0, limits=GatewayLimits(max_connections=128, max_inflight=MAX_QUEUE))
    report: dict = {}
    try:
        await gateway.start()
        if tracer is not None:
            _instrument_server(tracer, server, group)
        conn.send(("ready", gateway.port))
        await asyncio.get_running_loop().run_in_executor(None, _wait_for_stop, conn)
        replicas = group.stats()
        report = {
            "peak_rss_mb": peak_rss_mb_self() + sum(peak_rss_mb_of(row["pid"]) for row in replicas if row["pid"]),
            "restarts": sum(row["restarts"] for row in replicas),
            "retries": sum(row["failures"] for row in replicas),
            "spans": [span.as_row() for span in tracer.spans] if tracer is not None else [],
        }
    finally:
        await gateway.stop()
    try:
        conn.send(("stopped", report))
    except (BrokenPipeError, OSError):
        pass


class ServerProcess:
    """Generator-side handle on one spawned server process.

    ``close()`` always leaves the process ended: a polite stop first,
    then terminate, then kill.
    """

    def __init__(self, store_dir: Path, run_id: Optional[str] = None):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        # Not a daemon: the server spawns its replica, and daemonic
        # processes may not have children.
        self._process = ctx.Process(target=server_main, args=(child_conn, str(store_dir), run_id))
        self._process.start()
        child_conn.close()
        self.port: Optional[int] = None
        self.report: dict = {}

    def wait_ready(self) -> "ServerProcess":
        if not self._conn.poll(START_TIMEOUT_S):
            raise TimeoutError(f"server process not ready within {START_TIMEOUT_S}s")
        tag, self.port = self._conn.recv()
        if tag != "ready":
            raise RuntimeError(f"unexpected server message {tag!r}")
        return self

    def close(self) -> dict:
        try:
            self._conn.send("stop")
            if self._conn.poll(STOP_TIMEOUT_S):
                tag, report = self._conn.recv()
                if tag == "stopped":
                    self.report = report
        except (BrokenPipeError, EOFError, OSError):
            pass
        finally:
            self._conn.close()
            self._process.join(STOP_TIMEOUT_S)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(5.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
        return self.report


# ---------------------------------------------------------------------- #
# Generator side
# ---------------------------------------------------------------------- #
@dataclass
class Deployment:
    """One published model with its server process and a client on it."""

    store_dir: Path
    server: ServerProcess
    client: GatewayClient

    async def close(self) -> dict:
        await self.client.close()
        report = self.server.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return report


def publish(model, store_dir: Path) -> None:
    ModelStore(store_dir).publish(MODEL_NAME, model, optimize="full", batch_size=MAX_BATCH)


async def deploy(model, pool: np.ndarray, reference: np.ndarray, run_id: Optional[str] = None) -> Deployment:
    """Store publish, server + gateway + replica start, first correct answer."""
    store_dir = fresh_store_dir()
    publish(model, store_dir)
    server = ServerProcess(store_dir, run_id)
    try:
        server.wait_ready()
        client = GatewayClient(port=server.port, max_connections=64)
        first = await client.infer(MODEL_NAME, pool[0])
    except BaseException:
        server.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        raise
    deployment = Deployment(store_dir, server, client)
    if not np.allclose(first, reference[0], rtol=0.0, atol=PARITY_ATOL):
        await deployment.close()
        raise WrongAnswer("first answer of a fresh deployment is wrong")
    return deployment


@dataclass
class OpenLoopRun:
    latencies_ms: np.ndarray
    lateness_ms: List[float]
    offered: int
    failed: int
    wrong: int


async def open_loop(submit, pool, reference, count: int, rng, tracer: Optional[Tracer] = None) -> OpenLoopRun:
    """``count`` requests at Poisson arrivals of :data:`RATE_RPS`.

    ``submit(image, request_id)`` sends one request.  Every answer is
    checked against ``reference``; a wrong one counts as failed.  Latency
    is clocked from each request's scheduled send time.
    """
    offsets = poisson_schedule(RATE_RPS, count, rng)
    chosen = rng.integers(len(pool), size=count)
    loop = asyncio.get_running_loop()
    lateness: List[float] = []
    wrong = [0]
    start = loop.time()

    async def one(item):
        index, image_index = item
        scheduled = start + offsets[index]
        lateness.append((loop.time() - scheduled) * 1000.0)
        if tracer is None:
            out = await submit(pool[image_index], None)
        else:
            # Back-dated to the scheduled send time, like the latency clock.
            with tracer.span("serve.request", start=now() - (loop.time() - scheduled)) as span_id:
                out = await submit(pool[image_index], span_id)
        if not np.allclose(out, reference[image_index], rtol=0.0, atol=PARITY_ATOL):
            wrong[0] += 1
            raise WrongAnswer(f"wrong logits for pool image {image_index}")
        return out

    result = await run_open_loop(one, list(enumerate(chosen)), offsets=offsets)
    failed = result.rejected + result.deadline_missed + result.errors
    return OpenLoopRun(result.latencies_ms, lateness, result.offered, failed, wrong[0])


async def closed_loop(client: GatewayClient, pool, reference, seconds: float, rng):
    """``usable_cores()`` clients, each sending its next request when the
    last one is answered.  Returns (images/s of the median
    :data:`CAPACITY_WINDOW_S` window, attempted, failed)."""
    loop = asyncio.get_running_loop()
    done: List[float] = []
    failed = [0]
    start = loop.time()
    deadline = start + seconds

    async def client_loop():
        while loop.time() < deadline:
            index = int(rng.integers(len(pool)))
            try:
                out = await client.infer(MODEL_NAME, pool[index])
            except Exception:  # noqa: BLE001 - every refusal or error counts as failed
                failed[0] += 1
                continue
            if np.allclose(out, reference[index], rtol=0.0, atol=PARITY_ATOL):
                done.append(loop.time() - start)
            else:
                failed[0] += 1

    await asyncio.gather(*(client_loop() for _ in range(usable_cores())))
    windows = max(1, int(seconds // CAPACITY_WINDOW_S))
    counts = np.bincount((np.asarray(done) // CAPACITY_WINDOW_S).astype(int), minlength=windows)[:windows]
    return median(counts) / CAPACITY_WINDOW_S, len(done) + failed[0], failed[0]


@contextlib.contextmanager
def client_bodies(pool: np.ndarray, tracer: Optional[Tracer] = None):
    """Serve the client its request bodies pre-encoded; yields the images.

    Encoding a 64x64 image to JSON costs the client ~2.5 ms, which is
    generator work, not server work: charged at send time it makes the
    generator run late and lands in the latency tail.  So each pool
    image's body is encoded once, by the client's own ``json_bytes``, and
    the client is handed those bytes when it asks to encode that image
    (``loadgen.client_encode_us`` still reports the encode).  A client
    that stops encoding through ``json_bytes`` simply bypasses this.
    With a tracer, every encode the client asks for is a span.
    """
    import repro.gateway.client as client_module

    encode = client_module.json_bytes
    images = [pool[i] for i in range(len(pool))]  # stable objects: bodies are keyed by id
    bodies = {id(image): encode({"input": image}) for image in images}

    def cached(obj):
        body = bodies.get(id(obj.get("input"))) if isinstance(obj, dict) and len(obj) == 1 else None
        return body if body is not None else encode(obj)

    client_module.json_bytes = tracer.wrap(cached, "loadgen.client_encode") if tracer is not None else cached
    try:
        yield images
    finally:
        client_module.json_bytes = encode


@dataclass
class ServeRun:
    setup_s: List[float]
    latencies_ms: np.ndarray
    images_per_s: float
    attempted: int
    failed: int
    wrong: int
    peak_rss_mb: float
    lateness_p99_ms: float


async def serve_run(seed: int, seconds: float, setup_reps: int, tracer: Optional[Tracer] = None) -> ServeRun:
    """The ``serve_http_sys64`` workload: set up ``setup_reps`` times (the
    last deployment is kept), then an open-loop phase for the latency
    metrics and a closed-loop phase for capacity.  With a tracer, the
    server's spans join the generator's when the server stops."""
    rng = np.random.default_rng(seed)
    pool = payload_pool(seed)
    model = serve_model()
    reference = engine_compile(model, batch_size=MAX_BATCH).run(pool)
    run_id = tracer.run_id if tracer is not None else None
    setup: List[float] = []
    deployment = None
    for _ in range(setup_reps):
        if deployment is not None:
            await deployment.close()
        start = now()
        deployment = await deploy(model, pool, reference, run_id)
        setup.append(now() - start)
    # The generator's own garbage-collection pauses would land in the
    # latency tail (every request is clocked from its schedule); the
    # server process, which is what is measured, keeps its collector.
    gc.collect()
    gc.disable()
    try:
        client = deployment.client
        count = max(20, int(round(RATE_RPS * seconds * OPEN_SHARE)))
        with client_bodies(pool, tracer) as images:
            run = await open_loop(
                lambda image, rid: client.infer(MODEL_NAME, image, request_id=rid),
                images, reference, count, rng, tracer,
            )
            rate, closed_attempted, closed_failed = await closed_loop(
                client, images, reference, seconds * (1.0 - OPEN_SHARE), rng
            )
    finally:
        gc.enable()
        report = await deployment.close()
    if tracer is not None:
        tracer.spans.extend(Span.from_row(row) for row in report.get("spans", []))
    return ServeRun(
        setup_s=setup,
        latencies_ms=run.latencies_ms,
        images_per_s=rate,
        attempted=run.offered + closed_attempted,
        failed=run.failed + closed_failed,
        wrong=run.wrong,
        peak_rss_mb=report.get("peak_rss_mb", 0.0),
        lateness_p99_ms=percentile(run.lateness_ms, 99),
    )


# ---------------------------------------------------------------------- #
# Layer probes
# ---------------------------------------------------------------------- #
PROBE_REQUESTS = 300


async def serve_probes(seed: int) -> dict:
    """Store, cluster, serve, gateway and generator metrics on the serve model."""
    rng = np.random.default_rng(seed + 1)
    pool = payload_pool(seed)
    model = serve_model()
    session = engine_compile(model, batch_size=MAX_BATCH)
    reference = session.run(pool)
    metrics: dict = {}

    # store
    dirs = [fresh_store_dir() for _ in range(3)]
    try:
        metrics["store.publish_s"] = median([time_calls(lambda d=d: publish(model, d), 1)[0] for d in dirs])
        metrics["store.load_s"] = median(
            [time_calls(lambda d=d: ModelStore(d, cache_entries=0).load(MODEL_NAME), 1)[0] for d in dirs]
        )
        ref = ModelStore(dirs[0]).ref(SELECTOR)

        # cluster, then serve in-process on the same one-replica group
        start = now()
        group = ReplicaGroup(ref, replicas=1, name=MODEL_NAME).start()
        metrics["cluster.worker_start_s"] = now() - start
        one = pool[:1]
        try:
            group.infer_sync(one)
            metrics["cluster.infer_b1_ms"] = median(time_calls(lambda: group.infer_sync(one), 200)) * 1000.0
            server = InferenceServer(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE)
            server.add_model(MODEL_NAME, group)
            async with server:
                await server.submit(MODEL_NAME, pool[0])
                in_process = await open_loop(
                    lambda image, rid: server.submit(MODEL_NAME, image), pool, reference, PROBE_REQUESTS, rng
                )
        finally:
            group.close()
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    metrics["serve.submit_p50_ms"] = percentile(in_process.latencies_ms, 50)

    # gateway codec on the workload's real bodies
    body = codec.json_bytes({"input": np.asarray(pool[0])})
    output = {"model": MODEL_NAME, "output": reference[0], "latency_ms": 1.0}
    response = codec.json_response(output)
    metrics["gateway.decode_us"] = median(time_calls(lambda: codec.decode_infer_payload(body), 200)) * 1e6
    metrics["gateway.encode_us"] = median(time_calls(lambda: codec.json_response(output), 200)) * 1e6
    metrics["loadgen.client_encode_us"] = (
        median(time_calls(lambda: codec.json_bytes({"input": np.asarray(pool[0])}), 200)) * 1e6
    )
    metrics["gateway.request_bytes"] = float(len(body))
    metrics["gateway.response_bytes"] = float(len(response))

    # the full HTTP path, at the same fixed rate
    deployment = await deploy(model, pool, reference)
    try:
        client = deployment.client
        with client_bodies(pool) as images:
            http = await open_loop(
                lambda image, rid: client.infer(MODEL_NAME, image), images, reference, PROBE_REQUESTS, rng
            )
        stats = (await client.stats())["models"][MODEL_NAME]
    finally:
        report = await deployment.close()
    metrics["gateway.overhead_ms"] = percentile(http.latencies_ms, 50) - metrics["serve.submit_p50_ms"]
    metrics["serve.queue_wait_ms"] = float(stats["mean_queue_wait_ms"])
    metrics["serve.mean_batch_size"] = float(stats["mean_batch_size"])
    metrics["serve.batches"] = float(stats["batches"])
    metrics["serve.rejected"] = float(stats["rejected"])
    metrics["cluster.restarts"] = float(report.get("restarts", 0))
    metrics["cluster.retries"] = float(report.get("retries", 0))
    metrics["loadgen.lateness_p99_ms"] = percentile(http.lateness_ms, 99)
    failed = in_process.failed + http.failed
    if failed:
        raise AssertionError(f"{failed} probe request(s) failed")
    return metrics

