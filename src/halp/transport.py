"""Reliable ordered transports between node pairs.

Two implementations of the same contract (send a frame, receive a frame,
no loss or reorder): an in-process queue pair for deterministic tests, and
a TCP stream carrying the binary frame encoding for real deployments. The
TCP sockets set `TCP_NODELAY`, and the reader refuses a header that
promises more than `framing.MAX_PAYLOAD_BYTES` before reading the payload.

The in-process transport can be rate-limited to model a throughput-bound
link, priced almost as `halp.simulate` prices it: each directed link is a
FIFO that carries one frame at a time for `bits / rate` seconds, where
`bits` counts the 11-byte header as well as the rows, 88 bits per frame
more than the simulator's `ExchangeStep.bits`. `send` stamps
the frame with its arrival time and returns at once, so the sender keeps
computing while its rows are on the wire; `receive` hands the frame over
no earlier than that time.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from .framing import (
    HEADER,
    Frame,
    deserialize_frame,
    payload_length,
    serialize_frame,
)


_DIAL_FIRST_PAUSE_S = 0.005
_DIAL_MAX_PAUSE_S = 0.1


class TransportError(RuntimeError):
    pass


class TransportTimeout(TransportError):
    pass


class TransportClosed(TransportError):
    pass


class InProcTransport:
    """One endpoint of a bidirectional in-process channel.

    With a rate, each frame occupies this endpoint's outgoing link for
    `(header + payload) bits / rate` seconds after the link goes idle, and is
    queued with that arrival time; the receiving end delivers it no earlier.
    Like the runtime's nodes, one thread sends on an endpoint and one thread
    receives on it.
    """

    def __init__(self, send_q: queue.Queue, recv_q: queue.Queue, rate_mbps: float | None):
        self._send_q = send_q
        self._recv_q = recv_q
        self._rate = rate_mbps
        self._link_free = 0.0  # monotonic time this endpoint's outgoing link goes idle
        self._held: tuple[float, Frame | None] | None = None  # head of line, not yet due

    def send(self, frame: Frame) -> None:
        arrive = 0.0
        if self._rate:
            bits = (HEADER.size + len(frame.payload)) * 8
            arrive = max(time.monotonic(), self._link_free) + bits / (self._rate * 1e6)
            self._link_free = arrive
        self._send_q.put((arrive, frame))

    def receive(self, timeout: float) -> Frame:
        deadline = time.monotonic() + timeout
        item, self._held = self._held, None
        if item is None:
            try:
                item = self._recv_q.get(timeout=timeout)
            except queue.Empty:
                raise TransportTimeout(f"no frame within {timeout} s") from None
        arrive, frame = item
        if arrive > deadline:
            self._held = item  # the next receive delivers it
            time.sleep(max(0.0, deadline - time.monotonic()))
            raise TransportTimeout(f"no frame within {timeout} s")
        wait = arrive - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        if frame is None:
            raise TransportClosed("peer closed the channel")
        return frame

    def close(self) -> None:
        self._send_q.put((0.0, None))  # behind every frame already sent


def inproc_pair(rate_mbps: float | None = None) -> tuple[InProcTransport, InProcTransport]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        InProcTransport(a_to_b, b_to_a, rate_mbps),
        InProcTransport(b_to_a, a_to_b, rate_mbps),
    )


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        part = sock.recv(n - got)
        if not part:
            return None
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


class SocketTransport:
    """Frame stream over a connected TCP socket.

    A reader thread drains the socket into an internal queue so senders are
    never blocked by a peer that has not asked for the frame yet.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._queue: queue.Queue = queue.Queue()
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                header = _recv_exact(self._sock, HEADER.size)
                if header is None:
                    break
                payload = _recv_exact(self._sock, payload_length(header))
                if payload is None:
                    break
                self._queue.put(deserialize_frame(header + payload))
        except Exception as exc:
            # any failure, e.g. a MemoryError from a bogus payload length, must
            # reach receive() rather than end this thread silently
            self._queue.put(exc)
            return
        self._queue.put(None)

    def send(self, frame: Frame) -> None:
        data = serialize_frame(frame)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def receive(self, timeout: float) -> Frame:
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(f"no frame within {timeout} s") from None
        if item is None:
            raise TransportClosed("peer closed the connection")
        if isinstance(item, Exception):
            raise TransportError(f"receive failed: {item}") from item
        return item

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _no_delay(sock: socket.socket) -> None:
    """Send each frame at once instead of letting Nagle's algorithm hold a
    small frame back until the peer acknowledges the previous one. Only TCP
    sockets have the option; a Unix socket has no such delay."""
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def connect(address: str, timeout: float = 30.0) -> SocketTransport:
    """Dial host:port, retrying while the peer is not listening yet.

    All attempts share one deadline, `timeout` seconds after the call, and
    each attempt may take only the time left before it. Only
    `ConnectionRefusedError` is retried, after a pause of 5 ms that doubles
    up to 100 ms, so a peer that starts listening within `timeout` is
    reached whichever node started first. Any other `OSError` is raised at
    once; at the deadline the last refusal is raised, and a deadline that
    has passed before a dial raises `TimeoutError`.
    """
    host, port = address.rsplit(":", 1)
    deadline = time.monotonic() + timeout
    pause = _DIAL_FIRST_PAUSE_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left to dial {address} within {timeout} s")
        try:
            sock = socket.create_connection((host, int(port)), timeout=remaining)
            break
        except ConnectionRefusedError:
            time.sleep(max(0.0, min(pause, deadline - time.monotonic())))
            if time.monotonic() >= deadline:
                raise
            pause = min(2 * pause, _DIAL_MAX_PAUSE_S)
    sock.settimeout(None)
    _no_delay(sock)
    return SocketTransport(sock)


def listen_one(address: str, timeout: float = 30.0) -> SocketTransport:
    """Accept a single inbound connection on host:port. An address that
    cannot be bound raises `TransportError`; the listening socket is closed
    on every path."""
    host, port = address.rsplit(":", 1)
    try:
        with socket.create_server((host, int(port)), backlog=1) as server:
            server.settimeout(timeout)
            sock, _ = server.accept()
    except socket.timeout:  # a TimeoutError, so before OSError
        raise TransportTimeout(f"no connection on {address} within {timeout} s") from None
    except OSError as exc:
        raise TransportError(f"cannot listen on {address}: {exc}") from exc
    sock.settimeout(None)
    _no_delay(sock)
    return SocketTransport(sock)
