"""Length-prefixed socket protocol shared by the fleet front door and clients.

The serving fleet (:mod:`repro.serve.fleet`) speaks a deliberately small
binary protocol over a loopback TCP connection::

    frame := u32 length | u8 kind | u32 request_id | u32 meta_len | meta | payload

``length`` counts every byte after itself, ``meta`` is optional UTF-8 JSON
(``meta_len = 0`` means none) and ``payload`` carries raw little-endian
float32 tensor bytes.  Requests and responses are correlated by
``request_id``, which is connection-local, so one connection can carry many
requests in flight.

The hot path carries no JSON: a REQUEST frame has meta only when it sets a
``deadline_ms``, and a RESPONSE frame never does — the client shapes every
reply from the ``output_shape`` the PONG of its hello handshake announced.
Handshakes, stats and ERROR frames (code, message, retry hint) keep JSON meta.

Failures travel as **typed errors**: every admitted request resolves to either
a ``RESPONSE`` frame or an ``ERROR`` frame whose ``code`` maps onto the
:class:`FleetError` hierarchy (:class:`Overloaded`, :class:`DeadlineExceeded`,
:class:`ReplicaFailed`, :class:`CorruptReply`, :class:`ServerClosed`).  "Zero
lost requests" — the fleet's core robustness invariant — means exactly that
mapping: a reply or a typed error, never silence.

:class:`FleetClient` is the thread-safe client: ``submit`` returns a
:class:`concurrent.futures.Future` (so :func:`repro.serve.loadgen.run_load`
can drive a fleet exactly like an in-process engine) and retryable failures —
``overloaded`` sheds and dropped connections — are resent with capped
exponential backoff plus jitter until the retry budget or the per-request
timeout runs out.
"""

from __future__ import annotations

import heapq
import json
import socket
import struct
import threading
import time
from concurrent.futures import Future

import numpy as np

__all__ = [
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "KIND_PING",
    "KIND_PONG",
    "KIND_STATS",
    "KIND_STATS_REPLY",
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaFailed",
    "CorruptReply",
    "ServerClosed",
    "BadRequest",
    "error_for",
    "pack_frame",
    "split_frame",
    "read_frame",
    "FleetClient",
]

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
KIND_PING = 4
KIND_PONG = 5
KIND_STATS = 6
KIND_STATS_REPLY = 7

HEADER = struct.Struct("<IBII")  # length, kind, request_id, meta_len
MAX_FRAME_BYTES = 64 * 1024 * 1024  # sanity bound against corrupt length fields


# --------------------------------------------------------------------------- #
# typed errors
# --------------------------------------------------------------------------- #
class FleetError(RuntimeError):
    """Base of the typed serving errors carried by ``ERROR`` frames."""

    code = "error"
    retryable = False
    retry_after_ms: float | None = None  # server hint; set by error_for from meta


class Overloaded(FleetError):
    """Admission control shed the request (bounded queue / no free slot)."""

    code = "overloaded"
    retryable = True


class DeadlineExceeded(FleetError):
    """The request's deadline expired before a replica finished it."""

    code = "deadline"


class ReplicaFailed(FleetError):
    """Every dispatch attempt ended in a replica crash, hang or error; or, from
    ``Fleet.start``, too many replicas died before they were ever ready."""

    code = "replica_failed"


class CorruptReply(FleetError):
    """A reply failed checksum validation on every dispatch attempt."""

    code = "corrupt"


class ServerClosed(FleetError):
    """The server is draining and no longer admits requests."""

    code = "shutdown"


class BadRequest(FleetError):
    """Malformed request frame (wrong payload size or metadata)."""

    code = "bad_request"


_ERROR_TYPES = {
    cls.code: cls
    for cls in (Overloaded, DeadlineExceeded, ReplicaFailed, CorruptReply, ServerClosed, BadRequest)
}


def error_for(code: str, message: str = "", meta: dict | None = None) -> FleetError:
    """Build the typed exception for an ``ERROR`` frame's code.

    When the frame metadata carries a ``retry_after_ms`` hint (overload
    shedding under degradation), it is attached to the exception so retrying
    clients can pace themselves to the server's estimate.
    """
    error = _ERROR_TYPES.get(code, FleetError)(message or code)
    if meta is not None:
        hint = meta.get("retry_after_ms")
        if hint is not None:
            try:
                error.retry_after_ms = float(hint)
            except (TypeError, ValueError):
                pass
    return error


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def pack_frame(kind: int, request_id: int, meta: dict | None = None, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + JSON meta + raw payload); empty meta is omitted."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8") if meta else b""
    length = 9 + len(meta_bytes) + len(payload)
    return HEADER.pack(length, kind, request_id, len(meta_bytes)) + meta_bytes + payload


def split_frame(body: bytes) -> tuple[int, int, dict, bytes]:
    """Decode the bytes after the length field into (kind, id, meta, payload)."""
    kind, request_id, meta_len = struct.unpack_from("<BII", body, 0)
    meta_end = 9 + meta_len
    meta = json.loads(body[9:meta_end].decode("utf-8")) if meta_len else {}
    return kind, request_id, meta, body[meta_end:]


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, int, dict, bytes]:
    """Blocking read of one complete frame from a socket."""
    return _read_frame(lambda n: _recv_exact(sock, n))


def _read_frame(read) -> tuple[int, int, dict, bytes]:
    """One frame through ``read(n)``; fewer than ``n`` bytes means the peer closed."""
    head = read(4)
    if len(head) < 4:
        raise ConnectionError("connection closed mid-frame")
    (length,) = struct.unpack("<I", head)
    if not 9 <= length <= MAX_FRAME_BYTES:
        raise ConnectionError(f"invalid frame length {length}")
    body = read(length)
    if len(body) < length:
        raise ConnectionError("connection closed mid-frame")
    return split_frame(body)


# --------------------------------------------------------------------------- #
# client
# --------------------------------------------------------------------------- #
def _shut(sock: socket.socket) -> None:
    """Close ``sock`` and wake a reader blocked on it.

    ``close`` alone neither wakes the reader nor frees the descriptor while a
    buffered reader made by ``makefile`` is open; the reader closes that.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    sock.close()


class _ClientRequest:
    __slots__ = ("request_id", "frame", "future", "attempts", "expires_at")

    def __init__(self, request_id, payload, meta, timeout, kind=KIND_REQUEST):
        self.request_id = request_id
        self.frame = pack_frame(kind, request_id, meta, payload)  # resent as is on retry
        self.future: Future = Future()
        self.attempts = 0
        self.expires_at = time.monotonic() + timeout


class FleetClient:
    """Thread-safe client for a serving fleet's front door.

    Parameters
    ----------
    address:
        ``(host, port)`` of the fleet front door (``Fleet.address``).
    deadline_ms:
        Server-side deadline attached to every request (``None`` uses the
        fleet's default).  The server guarantees a reply — result or typed
        error — within this budget.
    timeout:
        Client-side budget in seconds per request across *all* retries; when
        it runs out the future fails with the last error.
    retries:
        How many times a retryable failure (``Overloaded``, dropped
        connection) is resent before the future fails.
    backoff_base, backoff_cap, jitter:
        Retry delay ``min(cap, base * 2**(attempt-1))`` scaled by a random
        ``1 + U(0, jitter)`` factor — capped exponential backoff with jitter,
        so synchronized clients do not re-stampede a recovering server.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        deadline_ms: float | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ):
        self._address = tuple(address)
        self._deadline_ms = deadline_ms
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._jitter = float(jitter)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None  # buffered reader over _sock, owned by the reader thread
        self._pending: dict[int, _ClientRequest] = {}
        self._ids = 0
        self._closed = False
        self._retry_heap: list[tuple[float, int, _ClientRequest]] = []
        self._retry_seq = 0
        self._retry_wakeup = threading.Condition(self._lock)
        self.input_shape: tuple[int, ...] = ()
        self.output_shape: tuple[int, ...] = ()
        self._reader = threading.Thread(target=self._reader_loop, name="fleet-client-reader", daemon=True)
        self._retrier = threading.Thread(target=self._retry_loop, name="fleet-client-retry", daemon=True)
        self.connect()
        self._reader.start()
        self._retrier.start()

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def connect(self) -> None:
        """(Re)connect and run the hello handshake (learns the IO shapes)."""
        with self._lock:
            self._connect_locked()

    def _connect_locked(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(self._address, timeout=10.0)
        sock.settimeout(None)
        sock.sendall(pack_frame(KIND_PING, 0))
        kind, _, meta, _ = read_frame(sock)
        if kind != KIND_PONG:
            sock.close()
            raise ConnectionError(f"handshake failed: expected PONG, got kind {kind}")
        self.input_shape = tuple(meta.get("input_shape", ()))
        self.output_shape = tuple(meta.get("output_shape", ()))
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _drop_connection_locked(self, sock) -> None:
        """Forget a dead socket and reschedule its in-flight requests."""
        if self._sock is not sock:
            return
        self._sock = None
        _shut(sock)
        for request in list(self._pending.values()):
            del self._pending[request.request_id]
            self._retry_or_fail_locked(request, ConnectionError("connection to fleet lost"))

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(self, sample: np.ndarray) -> Future:
        """Enqueue one sample; returns a future of its output tensor."""
        payload = np.ascontiguousarray(sample, dtype=np.float32).tobytes()
        meta = {"deadline_ms": float(self._deadline_ms)} if self._deadline_ms is not None else None
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            self._ids += 1
            request = _ClientRequest(self._ids, payload, meta, self._timeout)
            self._send_locked(request)
        return request.future

    def predict(self, sample: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking single-sample convenience wrapper around :meth:`submit`."""
        return self.submit(sample).result(timeout=timeout if timeout is not None else self._timeout + 5.0)

    def _send_locked(self, request: _ClientRequest) -> None:
        request.attempts += 1
        self._pending[request.request_id] = request
        try:
            self._connect_locked()
            self._sock.sendall(request.frame)
        except (OSError, ConnectionError) as error:
            del self._pending[request.request_id]
            self._retry_or_fail_locked(request, error)

    def _retry_or_fail_locked(self, request: _ClientRequest, error: Exception) -> None:
        retryable = isinstance(error, (ConnectionError, OSError)) or (
            isinstance(error, FleetError) and error.retryable
        )
        now = time.monotonic()
        if self._closed or not retryable or request.attempts > self._retries or now >= request.expires_at:
            if not request.future.done():
                request.future.set_exception(error)
            return
        hint_ms = getattr(error, "retry_after_ms", None)
        if hint_ms is not None and hint_ms > 0:
            # the server knows its own backlog better than blind exponential
            # backoff does — pace to its estimate, capped like local backoff
            delay = min(self._backoff_cap, hint_ms / 1e3)
        else:
            delay = min(self._backoff_cap, self._backoff_base * 2 ** (request.attempts - 1))
        delay *= 1.0 + float(self._rng.uniform(0.0, self._jitter))
        self._retry_seq += 1
        heapq.heappush(self._retry_heap, (now + delay, self._retry_seq, request))
        self._retry_wakeup.notify_all()

    # ------------------------------------------------------------------ #
    # background threads
    # ------------------------------------------------------------------ #
    def _reader_loop(self) -> None:
        rfile = None
        while True:
            with self._lock:
                if self._closed:
                    break
                sock, rfile = self._sock, self._rfile
            if sock is None:
                time.sleep(0.01)
                continue
            try:
                kind, request_id, meta, payload = _read_frame(rfile.read)
            except (OSError, ConnectionError, ValueError):
                with self._lock:
                    self._drop_connection_locked(sock)
                rfile.close()
                continue
            with self._lock:
                request = self._pending.pop(request_id, None)
            if request is None or request.future.done():
                continue
            if kind == KIND_RESPONSE:
                out = np.frombuffer(payload, dtype=np.float32).reshape(self.output_shape)
                request.future.set_result(out.copy())
            elif kind == KIND_STATS_REPLY:
                request.future.set_result(meta)
            elif kind == KIND_ERROR:
                error = error_for(meta.get("code", "error"), meta.get("message", ""), meta)
                with self._lock:
                    self._retry_or_fail_locked(request, error)
        if rfile is not None:
            rfile.close()

    def _retry_loop(self) -> None:
        with self._lock:
            while not self._closed:
                if not self._retry_heap:
                    self._retry_wakeup.wait(timeout=0.1)
                    continue
                due, _, request = self._retry_heap[0]
                now = time.monotonic()
                if due > now:
                    self._retry_wakeup.wait(timeout=min(due - now, 0.1))
                    continue
                heapq.heappop(self._retry_heap)
                if not request.future.done():
                    self._send_locked(request)

    # ------------------------------------------------------------------ #
    # extras
    # ------------------------------------------------------------------ #
    def server_stats(self, timeout: float = 5.0) -> dict:
        """Fetch the fleet's stats snapshot over the wire."""
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            self._ids += 1
            request = _ClientRequest(self._ids, b"", None, timeout, kind=KIND_STATS)
            self._pending[request.request_id] = request
            self._connect_locked()
            self._sock.sendall(request.frame)
        kind_payload = request.future.result(timeout=timeout)
        return kind_payload

    def close(self) -> None:
        """Close the connection; unresolved futures fail with ServerClosed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock, self._sock = self._sock, None
            for request in self._pending.values():
                if not request.future.done():
                    request.future.set_exception(ServerClosed("client closed"))
            self._pending.clear()
            self._retry_wakeup.notify_all()
        if sock is not None:
            _shut(sock)
        for thread in (self._reader, self._retrier):
            if thread.is_alive() and thread is not threading.current_thread():
                thread.join(timeout=2.0)

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
