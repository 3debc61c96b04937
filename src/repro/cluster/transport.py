"""Worker transports: how the parent talks to one replica worker.

The PR 5 cluster spoke exactly one dialect: a ``multiprocessing`` pipe
for control messages plus shared-memory arenas for array payloads, to a
child process spawned on the same host.  That dialect is now one
implementation of a small :class:`Transport` interface, so the *same*
message schema can also travel over a TCP socket to a worker running on
another host (or just another container).

Message schema (transport-independent; array payloads appear in-band).
Every frame has one fixed arity:

==============================  =========================================
parent -> worker                worker -> parent
==============================  =========================================
``("init", spec, options)``     ``("ready", meta)`` or
                                ``("fatal", message)``
``("run", batch, seq, ctx)``    ``("ok", seq, result, compute_s, obs)``
                                or ``("err", seq, message)``
``("ping", seq)``               ``("pong", seq)``
``("stop",)``                   (conversation over)
==============================  =========================================

``init`` opens a :class:`SocketTransport` conversation (a spawned worker
receives its spec and options as process arguments instead); the
one-shot ``ready``/``fatal`` handshake surfaces through
:meth:`Transport.start`'s return value or
:class:`~repro.cluster.errors.WorkerStartupError`.

``ctx`` and ``obs`` carry observability: ``ctx`` is the parent's trace
context (``{"trace_ids": [...]}``) or ``None`` for an untraced request,
and ``obs`` is the worker's reply timing
(:func:`~repro.cluster.worker.worker_obs`: pid, compute duration) exactly
when ``ctx`` is set, ``None`` otherwise.  Parent and worker must run the
same ``repro`` tree.  A worker answers a frame of any other shape with
``("err", -1, message)`` and keeps serving; a malformed ``init`` gets
``fatal``, and a frame that does not decode ends the conversation.  The
worker side of this table is written once, in
:func:`repro.cluster.worker.converse`.

* :class:`LocalTransport` spawns the worker as a child process; control
  messages cross a pipe and arrays move through shared-memory arenas
  (:mod:`repro.cluster.shm`) as tiny descriptors -- the PR 5 path,
  behavior-for-behavior.
* :class:`SocketTransport` connects to an already-running
  ``repro-worker`` process (:mod:`repro.cluster.remote`), frames every
  message as ``8-byte big-endian length + payload`` over TCP, and ships
  arrays in-band.  The payload encoding is pickle: the cluster protocol
  is for *trusted* workers you launched yourself -- exactly like the
  spawn path, whose child also unpickles whatever the parent sends.
  Never point it at an untrusted endpoint.

:class:`~repro.cluster.replica.Replica` drives either transport through
the same five calls (``start`` / ``send`` / ``poll`` / ``recv`` /
``close``), so routing, retry, health checks and telemetry in
:class:`~repro.cluster.ReplicaGroup` are transport-agnostic.
"""

from __future__ import annotations

import multiprocessing
import pickle
import select
import socket
import struct
import time
from abc import ABC, abstractmethod
from typing import Optional, Tuple

from repro.cluster.errors import WorkerStartupError
from repro.cluster.shm import ShmArena, ShmReader

__all__ = [
    "Transport",
    "LocalTransport",
    "SocketTransport",
    "FrameBuffer",
    "encode_frame",
    "decode_frame",
    "recv_message",
    "send_message",
    "parse_address",
]

#: Length prefix of one frame: 8-byte big-endian unsigned payload size.
_FRAME_HEADER = struct.Struct(">Q")
#: Sanity bound on a single frame (a batch of float64 images at sys 512
#: and B=1024 is ~2 GiB; anything past this is a protocol desync).
MAX_FRAME_BYTES = 1 << 33
#: Socket read chunk size.
_CHUNK = 1 << 20


# ---------------------------------------------------------------------- #
# Frame codec (shared by SocketTransport and the repro-worker server)
# ---------------------------------------------------------------------- #
def encode_frame(message: tuple) -> bytes:
    """One wire frame: length prefix + pickled message tuple."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> tuple:
    return pickle.loads(payload)


class FrameBuffer:
    """Incremental decoder: feed raw socket bytes, pop complete messages."""

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def next_message(self) -> Optional[tuple]:
        """The next complete message, or ``None`` when more bytes are needed."""
        header = _FRAME_HEADER.size
        if len(self._data) < header:
            return None
        (length,) = _FRAME_HEADER.unpack(bytes(self._data[:header]))
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(f"frame of {length} bytes exceeds the protocol bound")
        if len(self._data) < header + length:
            return None
        payload = bytes(self._data[header : header + length])
        del self._data[: header + length]
        return decode_frame(payload)

    @property
    def pending(self) -> bool:
        """True when a complete frame is already buffered."""
        header = _FRAME_HEADER.size
        if len(self._data) < header:
            return False
        (length,) = _FRAME_HEADER.unpack(bytes(self._data[:header]))
        return len(self._data) >= header + length


def send_message(sock: socket.socket, message: tuple) -> None:
    sock.sendall(encode_frame(message))


def recv_message(
    sock: socket.socket, buffer: FrameBuffer, deadline: Optional[float] = None
) -> tuple:
    """Blocking receive of one message; raises ``EOFError`` on a closed peer.

    ``deadline`` is a ``time.monotonic`` instant; ``TimeoutError`` past it.
    """
    while True:
        message = buffer.next_message()
        if message is not None:
            return message
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("no complete frame before the deadline")
        chunk = sock.recv(_CHUNK)
        if not chunk:
            raise EOFError("peer closed the connection")
        buffer.feed(chunk)


def parse_address(address) -> Tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, port = address.rpartition(":")
        return host, int(port)
    raise ValueError(f"worker address must be 'host:port' or (host, port), got {address!r}")


def _handshake_meta(message: tuple, who: str, abort) -> dict:
    """The ``meta`` of a ``("ready", meta)`` handshake.

    A ``("fatal", message)`` handshake runs ``abort`` (the transport's
    teardown) and raises :class:`~repro.cluster.errors.WorkerStartupError`.
    """
    kind, payload = message
    if kind == "ready":
        return payload
    abort()
    raise WorkerStartupError(f"{who} failed to build its session:\n{payload}")


# ---------------------------------------------------------------------- #
# The interface
# ---------------------------------------------------------------------- #
class Transport(ABC):
    """One worker conversation: lifecycle + framed messages with arrays.

    Implementations are driven by exactly one
    :class:`~repro.cluster.replica.Replica` (which serializes access
    under its own lock), so they need no internal locking.  Breakage is
    reported through the ``OSError`` family (``BrokenPipeError`` /
    ``EOFError`` / ``ConnectionError``) from :meth:`send`/:meth:`recv`,
    or by :attr:`alive` turning false between calls.
    """

    name = "?"

    @abstractmethod
    def start(self) -> dict:
        """Bring the worker up (spawn or connect) and return its handshake meta.

        Called again after :meth:`close` to restart/reconnect.  Raises
        :class:`~repro.cluster.errors.WorkerStartupError` when the worker
        cannot serve.
        """

    @abstractmethod
    def send(self, message: tuple) -> None:
        """Ship one parent->worker message (``run`` carries the batch array)."""

    @abstractmethod
    def poll(self, timeout_s: float) -> bool:
        """True when a complete worker->parent message is ready to receive."""

    @abstractmethod
    def recv(self) -> tuple:
        """The next worker->parent message, array payloads materialized."""

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Whether the conversation can still make progress."""

    @abstractmethod
    def close(self, graceful: bool = True) -> None:
        """Tear the conversation down (``graceful`` sends ``stop`` first)."""

    @property
    def pid(self) -> Optional[int]:
        """Worker process id, when this transport owns the process."""
        return None

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# ---------------------------------------------------------------------- #
# Local: spawned child process, pipe + shared memory (the PR 5 path)
# ---------------------------------------------------------------------- #
class LocalTransport(Transport):
    """Spawn the worker as a child process on this host.

    Control messages cross a ``multiprocessing.Pipe``; batch arrays move
    through shared-memory arenas and only their descriptors are piped
    (:mod:`repro.cluster.shm`).  ``options`` travel to
    :func:`~repro.cluster.worker.worker_main` (``handicap_s`` etc.).
    """

    name = "local"

    def __init__(
        self,
        spec,
        index: int = 0,
        *,
        options: Optional[dict] = None,
        start_timeout_s: float = 120.0,
        start_method: str = "spawn",
    ):
        self.spec = spec
        self.index = int(index)
        self.options = dict(options or {})
        self.start_timeout_s = float(start_timeout_s)
        self._ctx = multiprocessing.get_context(start_method)
        self._proc = None
        self._conn = None
        self._requests = ShmArena()   # parent-owned outbound arena
        self._responses = ShmReader()  # attachments to the worker's arena

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> dict:
        from repro.cluster.worker import worker_main

        if self.alive:
            self.close(graceful=False)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.spec, self.options),
            name=f"repro-replica-{self.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only other end now
        deadline = time.monotonic() + self.start_timeout_s
        while not parent_conn.poll(0.02):
            if not proc.is_alive():
                parent_conn.close()
                raise WorkerStartupError(
                    f"replica {self.index} died during startup (exit code {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                proc.kill()
                parent_conn.close()
                raise WorkerStartupError(
                    f"replica {self.index} did not hand-shake within {self.start_timeout_s:g}s"
                )

        def abort() -> None:
            parent_conn.close()
            proc.join(timeout=2.0)

        meta = _handshake_meta(parent_conn.recv(), f"replica {self.index}", abort)
        self._proc, self._conn = proc, parent_conn
        return meta

    def send(self, message: tuple) -> None:
        if self._conn is None:
            raise BrokenPipeError(f"replica {self.index} transport is not connected")
        if message[0] == "run":
            # The batch array moves through shared memory; only its
            # descriptor (and the trace context) rides the pipe.
            _, batch, seq, ctx = message
            message = ("run", self._requests.write(batch), seq, ctx)
        self._conn.send(message)

    def poll(self, timeout_s: float) -> bool:
        return self._conn is not None and self._conn.poll(timeout_s)

    def recv(self) -> tuple:
        message = self._conn.recv()
        if message[0] == "ok":
            # Materialize the result array the descriptor points at.
            _, seq, out_ref, compute_s, obs = message
            return ("ok", seq, self._responses.take(out_ref), compute_s, obs)
        return message

    def close(self, graceful: bool = True) -> None:
        conn, self._conn = self._conn, None
        proc, self._proc = self._proc, None
        if conn is not None:
            if graceful and proc is not None and proc.is_alive():
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if proc is not None:
            proc.join(timeout=5.0 if graceful else 0.5)
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            proc.close()
        # Reclaim the worker's response arena unconditionally.  Only a
        # worker that processed ``stop`` unlinks its own arena; one that
        # was already dead at close, crashed mid-call, or had to be
        # kill()ed never does -- and distinguishing those exit paths
        # reliably is not worth it when a second unlink is a harmless
        # FileNotFoundError (swallowed before any tracker message).
        self._responses.unlink_all()
        self._requests.close(unlink=True)

    def describe(self) -> str:
        return f"local(pid={self.pid})"


# ---------------------------------------------------------------------- #
# Socket: length-prefixed frames over TCP to a repro-worker process
# ---------------------------------------------------------------------- #
class SocketTransport(Transport):
    """Talk to a ``repro-worker`` process over TCP.

    :meth:`start` connects to ``address`` (``"host:port"``), ships an
    ``("init", spec, options)`` frame, and waits for the worker's
    ``ready``/``fatal`` handshake -- the worker builds its session from
    the spec it just received, so nothing model-specific needs to exist
    on the remote host beyond the ``repro`` package itself.  A restart is
    a reconnect: the worker entrypoint keeps listening after a
    conversation ends, rebuilding a fresh session per connection.
    """

    name = "socket"

    def __init__(
        self,
        spec,
        address,
        *,
        options: Optional[dict] = None,
        connect_timeout_s: float = 10.0,
        start_timeout_s: float = 120.0,
    ):
        if connect_timeout_s <= 0 or start_timeout_s <= 0:
            raise ValueError("timeouts must be > 0")
        self.spec = spec
        self.address = parse_address(address)
        self.options = dict(options or {})
        self.connect_timeout_s = float(connect_timeout_s)
        self.start_timeout_s = float(start_timeout_s)
        self._sock: Optional[socket.socket] = None
        self._buffer = FrameBuffer()
        self._broken = False

    @property
    def alive(self) -> bool:
        return self._sock is not None and not self._broken

    def start(self) -> dict:
        self.close(graceful=False)
        host, port = self.address
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout_s)
        except OSError as exc:
            raise WorkerStartupError(f"cannot reach worker at {host}:{port}: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        sock.settimeout(None)  # blocking sends; receives go through select
        self._sock = sock
        self._buffer = FrameBuffer()
        self._broken = False
        try:
            send_message(sock, ("init", self.spec, self.options))
            deadline = time.monotonic() + self.start_timeout_s
            message = recv_message(sock, self._buffer, deadline)
        except (TimeoutError, EOFError, OSError) as exc:
            self.close(graceful=False)
            raise WorkerStartupError(
                f"worker at {host}:{port} did not hand-shake: {exc}"
            ) from exc
        return _handshake_meta(message, f"worker at {host}:{port}", lambda: self.close(graceful=False))

    def send(self, message: tuple) -> None:
        if not self.alive:
            raise BrokenPipeError(f"worker transport to {self.address} is not connected")
        try:
            send_message(self._sock, message)
        except OSError:
            self._broken = True
            raise

    def poll(self, timeout_s: float) -> bool:
        if self._buffer.pending:
            return True
        if not self.alive:
            return False
        try:
            readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout_s))
            if not readable:
                return False
            chunk = self._sock.recv(_CHUNK)
        except (OSError, ValueError):
            self._broken = True
            return False
        if not chunk:  # peer closed: the conversation is over
            self._broken = True
            return False
        self._buffer.feed(chunk)
        return self._buffer.pending

    def recv(self) -> tuple:
        message = self._buffer.next_message()
        if message is not None:
            return message
        if not self.alive:
            raise EOFError(f"worker at {self.address} closed the connection")
        return recv_message(self._sock, self._buffer)

    def close(self, graceful: bool = True) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if graceful and not self._broken:
            try:
                send_message(sock, ("stop",))
            except OSError:
                pass
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._buffer = FrameBuffer()
        self._broken = False

    def describe(self) -> str:
        host, port = self.address
        return f"socket({host}:{port})"
