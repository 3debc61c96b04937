"""The replica-worker conversation, driven frame by frame on both transports.

One test body runs over :class:`LocalTransport` (spawned child, pipe +
shared memory) and :class:`SocketTransport` (an in-thread
``WorkerServer``), since both speak the one loop in
:func:`repro.cluster.worker.converse`.  A second group fires malformed
frames at a live ``WorkerServer`` over raw sockets and checks that the
listener survives every one of them.
"""

from __future__ import annotations

import os
import socket
import struct
import time

import numpy as np
import pytest

from repro.cluster import ReplicaGroup, WorkerServer
from repro.cluster.transport import FrameBuffer, LocalTransport, SocketTransport, encode_frame, recv_message
from repro.cluster.worker import probe_session
from repro.engine import compile as engine_compile
from repro.models.config import DONNConfig
from repro.models.donn import DONN

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

HANDICAP_S = 0.02
#: A well-framed payload that is not a pickle.
GARBAGE_FRAME = struct.pack(">Q", 5) + b"junk!"


def _tiny_model() -> DONN:
    config = DONNConfig(
        sys_size=16, pixel_size=36e-6, distance=0.05, num_layers=2, num_classes=4, approx="fresnel", seed=3
    )
    return DONN(config)


@pytest.fixture(scope="module")
def session():
    return engine_compile(_tiny_model(), backend="numpy")


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((5, 16, 16))


@pytest.fixture
def worker_server():
    with WorkerServer(port=0) as server:
        thread = server.serve_in_thread()
        yield server
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "listener thread outlived close()"


def _make_transport(kind: str, spec, address: str):
    options = {"handicap_s": HANDICAP_S}
    if kind == "local":
        return LocalTransport(spec, options=options)
    return SocketTransport(spec, address, options=options)


def _exchange(transport, message: tuple, timeout_s: float = 30.0) -> tuple:
    """Send one frame and wait (bounded) for the worker's answer."""
    transport.send(message)
    deadline = time.monotonic() + timeout_s
    while not transport.poll(0.05):
        assert transport.alive, "worker ended the conversation"
        assert time.monotonic() < deadline, f"no answer to {message[0]!r}"
    return transport.recv()


# --------------------------------------------------------------------- #
# One conversation, both transports
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["local", "socket"])
def test_conversation(kind, session, images, worker_server):
    spec = session.to_spec()
    reference = session.run(images)
    transport = _make_transport(kind, spec, worker_server.address)
    try:
        # Handshake: both transports report the meta an in-process probe sees.
        assert transport.start() == probe_session(spec.build())

        # Untraced run: fixed five-element ok frame with obs None.
        kind_, seq, result, compute_s, obs = _exchange(transport, ("run", images, 1, None))
        assert (kind_, seq, obs) == ("ok", 1, None)
        assert compute_s > 0.0
        np.testing.assert_allclose(result, reference, atol=1e-10)

        # Traced run: the worker's timing comes back, handicap included.
        kind_, seq, result, compute_s, obs = _exchange(transport, ("run", images, 2, {"trace_ids": ["t"]}))
        assert (kind_, seq) == ("ok", 2)
        assert obs["pid"] == (transport.pid if kind == "local" else os.getpid())
        assert obs["compute_ms"] == pytest.approx(compute_s * 1000.0)
        assert obs["handicap_ms"] == pytest.approx(HANDICAP_S * 1000.0)

        # A bad batch is the request's fault: err, and the worker serves on.
        kind_, seq, message = _exchange(transport, ("run", np.zeros((2, 16)), 3, None))
        assert (kind_, seq) == ("err", 3) and "Traceback" in message
        kind_, seq, result, _, _ = _exchange(transport, ("run", images[:2], 4, None))
        assert (kind_, seq) == ("ok", 4)
        np.testing.assert_allclose(result, reference[:2], atol=1e-10)

        # A frame of the wrong arity is refused, not guessed at.
        kind_, seq, message = _exchange(transport, ("ping",))
        assert (kind_, seq) == ("err", -1) and "same repro tree" in message

        assert _exchange(transport, ("ping", 5)) == ("pong", 5)

        # stop ends the conversation: the child exits / the server hangs up.
        transport.send(("stop",))
        deadline = time.monotonic() + 30.0
        while transport.alive:
            transport.poll(0.05)
            assert time.monotonic() < deadline, "worker kept the conversation open after stop"
            time.sleep(0.01)
    finally:
        transport.close(graceful=False)


# --------------------------------------------------------------------- #
# Malformed frames never take the listener down
# --------------------------------------------------------------------- #
def _raw_conversation(address: str, *frames: bytes) -> list:
    """Send raw frames on one connection; collect replies until the worker hangs up."""
    host, _, port = address.rpartition(":")
    replies = []
    with socket.create_connection((host, int(port)), timeout=30.0) as sock:
        buffer = FrameBuffer()
        for frame in frames:
            sock.sendall(frame)
            try:
                replies.append(recv_message(sock, buffer))
            except EOFError:
                replies.append(None)
                break
    return replies


class TestMalformedFrames:
    def test_malformed_init_answers_fatal(self, worker_server):
        for bad in [("init", None), 42, ("run", np.zeros((1, 16, 16)), 1, None)]:
            (reply,) = _raw_conversation(worker_server.address, encode_frame(bad))
            assert reply[0] == "fatal" and "init" in reply[1]

    def test_bad_spec_or_options_answer_fatal(self, worker_server, session):
        (reply,) = _raw_conversation(worker_server.address, encode_frame(("init", None, None)))
        assert reply[0] == "fatal"
        (reply,) = _raw_conversation(worker_server.address, encode_frame(("init", session.to_spec(), 42)))
        assert reply[0] == "fatal"

    def test_undecodable_frame_ends_only_that_conversation(self, worker_server):
        assert _raw_conversation(worker_server.address, GARBAGE_FRAME) == [None]

    def test_old_form_run_gets_err_and_the_worker_serves_on(self, worker_server, session, images):
        spec = session.to_spec()
        replies = _raw_conversation(
            worker_server.address,
            encode_frame(("init", spec, {})),
            encode_frame(("run", images, 1)),
            encode_frame(("ping", 2)),
        )
        assert replies[0][0] == "ready"
        assert replies[1][:2] == ("err", -1) and "same repro tree" in replies[1][2]
        assert replies[2] == ("pong", 2)

    def test_listener_survives_every_malformed_frame(self, worker_server, session, images):
        spec = session.to_spec()
        for frames in [
            [encode_frame(("init", None))],
            [encode_frame(42)],
            [GARBAGE_FRAME],
            [encode_frame(("init", spec, {})), encode_frame(("run", images, 1))],
        ]:
            _raw_conversation(worker_server.address, *frames)
        # A well-formed parent still gets a handshake and compile() parity.
        with ReplicaGroup(spec, replicas=0, workers=[worker_server.address], name="after-garbage") as group:
            np.testing.assert_allclose(group.infer_sync(images), session.run(images), atol=1e-10)

