"""The replica worker: one conversation loop, shared by both transports.

Each worker rebuilds an :class:`~repro.engine.InferenceSession` from a
picklable :class:`~repro.engine.SessionSpec` (its *own* compiled program,
kernel caches and FFT plans, in its own address space -- this is what
frees a replica group from the parent's GIL), then answers the
fixed-arity request/response protocol documented in
:mod:`repro.cluster.transport`.

:func:`converse` is that protocol, written once: the ``ready``/``fatal``
handshake, the ``run``/``ping``/``stop`` dispatch and the ``err`` reply.
A transport supplies only how a frame arrives and leaves:

* :func:`worker_main` -- a spawned child on this host; frames cross a
  ``multiprocessing`` pipe and batch arrays travel through shared memory
  (:mod:`repro.cluster.shm`) as tiny descriptors;
* :mod:`repro.cluster.remote` -- the ``repro-worker`` TCP server; frames
  are length-prefixed pickles with the arrays in-band.

A per-request failure, or a frame that is not one of the fixed forms,
answers ``("err", ...)`` and the worker lives on; only a closed or
undecodable stream (parent gone) or ``stop`` ends the conversation.  The
``handicap_s`` option adds a fixed sleep to every call: a deliberately
slowed replica for asymmetric-capacity tests and benchmarks (see
``benchmarks/bench_sharded_serving.py``).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Callable, Optional

import numpy as np

from repro.cluster.shm import ShmArena, ShmReader
from repro.engine.spec import SessionSpec

__all__ = ["converse", "worker_main", "probe_session", "run_batch", "worker_obs"]


def worker_obs(compute_s: float, handicap_s: float = 0.0) -> dict:
    """The observability payload a traced ``ok`` reply carries.

    Durations only -- ``time.monotonic``/``perf_counter`` instants are
    process-local and meaningless to the parent, which anchors the
    stitched ``worker.compute`` span inside its own dispatch window.
    """
    obs = {"pid": os.getpid(), "compute_ms": compute_s * 1000.0}
    if handicap_s > 0.0:
        obs["handicap_ms"] = handicap_s * 1000.0
    return obs


def probe_session(session) -> dict:
    """Session metadata for the startup handshake.

    Runs one zero-image batch so the parent learns the per-item output
    shape (needed for empty-batch semantics and stats) -- which also
    warms the worker's FFT plan and kernel caches before traffic lands.
    """
    input_shape = tuple(session.input_shape)
    warm = session.run(np.zeros((1,) + input_shape))
    return {
        "kind": session.kind,
        "backend": session.backend_name,
        "dtype": session.dtype.name,
        "input_shape": input_shape,
        "output_item_shape": tuple(warm.shape[1:]),
        "output_dtype": warm.dtype.str,
    }


def run_batch(session, batch: np.ndarray, handicap_s: float = 0.0):
    """One fused call: ``(result, compute_s)`` -- the worker-side hot path."""
    started = time.perf_counter()
    result = session.run(batch, batch_size=len(batch) or None)
    compute_s = time.perf_counter() - started
    if handicap_s > 0.0:
        time.sleep(handicap_s)
    return np.asarray(result), compute_s


def _identity(payload):
    return payload


def converse(
    spec: SessionSpec,
    options: Optional[dict],
    recv: Callable[[], tuple],
    send: Callable[[tuple], None],
    *,
    load: Callable = _identity,
    store: Callable = _identity,
) -> None:
    """Serve one parent conversation: the handshake, then the call loop.

    ``recv``/``send`` move whole frames; ``load`` turns a ``run`` frame's
    batch payload into an array and ``store`` turns a result array into
    the ``ok`` frame's payload (both identity for in-band transports).
    ``options`` understands ``handicap_s`` (artificial per-call sleep,
    seconds).  Never raises: a session that cannot be built answers
    ``("fatal", message)``; a closed or undecodable stream, a send that
    breaks, or ``stop`` ends the conversation.
    """
    try:
        try:
            handicap_s = float((options or {}).get("handicap_s") or 0.0)
            session = spec.build()
            meta = probe_session(session)
        except Exception:
            send(("fatal", traceback.format_exc(limit=8)))
            return
        send(("ready", meta))
        while True:
            try:
                message = recv()
            except Exception:
                return  # parent gone, or a frame that does not decode
            match message:
                case ("stop",):
                    return
                case ("ping", seq):
                    send(("pong", seq))
                case ("run", payload, seq, ctx):
                    try:
                        # ``load`` may alias transport memory; handing it
                        # straight to run_batch keeps it from outliving
                        # the call (see worker_main).
                        result, compute_s = run_batch(session, load(payload), handicap_s)
                        # A traced request (ctx set) gets the worker's
                        # timing back for its stitched worker.compute span.
                        obs = worker_obs(compute_s, handicap_s) if ctx is not None else None
                        reply = ("ok", seq, store(result), compute_s, obs)
                    except Exception:
                        reply = ("err", seq, traceback.format_exc(limit=8))
                    send(reply)
                case _:
                    head = message[0] if isinstance(message, tuple) and message else type(message).__name__
                    send(("err", -1, f"malformed frame {head!r}: parent and worker must run the same repro tree"))
    except OSError:
        return  # send-side breakage: the parent is gone


def worker_main(conn, spec: SessionSpec, options: Optional[dict] = None) -> None:
    """Entry point of one replica worker process (``spawn`` start method).

    ``conn`` is the worker end of a ``multiprocessing.Pipe``.  Batch
    arrays arrive as descriptors into the parent's shared-memory arena
    and leave through this worker's own arena (:mod:`repro.cluster.shm`).
    """
    # The parent owns worker lifetime (stop message / terminate): a
    # keyboard interrupt aimed at the parent must not race its shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread / platform
        pass
    requests = ShmReader()   # parent-owned request arena
    responses = ShmArena()   # worker-owned response arena
    try:
        # The request view aliases the parent's arena: the session copies
        # during encoding, and the parent will not overwrite the block
        # before it has our response.  No view may outlive its call -- a
        # lingering reference pins the parent's arena mmap and turns the
        # shutdown close below into a BufferError -- so converse() hands
        # it straight to the session and never binds it.
        converse(spec, options, conn.recv, conn.send, load=requests.view, store=responses.write)
    finally:
        requests.close()
        responses.close(unlink=True)
        conn.close()
