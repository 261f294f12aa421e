"""Framed byte transports: stream sockets and wiretaps.

Every message on the wire is one frame: a big-endian u32 length followed by
that many payload bytes. Handshake messages, records, and keystore RPCs all
ride on this framing.
"""

from __future__ import annotations

import socket
import struct
from typing import Protocol

from .errors import HandshakeTimeout, TransportClosed

MAX_FRAME = 16 * 1024 * 1024


class FrameTransport(Protocol):
    def send_frame(self, payload: bytes) -> None: ...

    def recv_frame(self, timeout: float | None = None) -> bytes: ...


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise ValueError("frame too large")
    return struct.pack(">I", len(payload)) + payload


class SocketTransport:
    """Frames over a connected stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Nagle plus delayed ACK would hold a small frame (a request
            # after the Finished) back for tens of milliseconds
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_frame(self, payload: bytes) -> None:
        self._sock.sendall(encode_frame(payload))

    def recv_frame(self, timeout: float | None = None) -> bytes:
        self._sock.settimeout(timeout)
        try:
            header = self._recv_exact(4)
            (length,) = struct.unpack(">I", header)
            if length > MAX_FRAME:
                raise TransportClosed("oversized frame")
            return self._recv_exact(length)
        except socket.timeout as exc:
            raise HandshakeTimeout("timed out waiting for frame") from exc

    def _recv_exact(self, n: int) -> bytes:
        # received in place: appending chunks would copy the frame per chunk
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            count = self._sock.recv_into(view[got:])
            if not count:
                raise TransportClosed("peer closed connection")
            got += count
        return bytes(buf)

    def close(self) -> None:
        self._sock.close()


class WiretapTransport:
    """Pass-through transport that appends every frame to a capture list,
    for never-plaintext byte scans over real traffic."""

    def __init__(self, inner: FrameTransport, capture: list[bytes]) -> None:
        self._inner = inner
        self.capture = capture

    def send_frame(self, payload: bytes) -> None:
        self.capture.append(bytes(payload))
        self._inner.send_frame(payload)

    def recv_frame(self, timeout: float | None = None) -> bytes:
        payload = self._inner.recv_frame(timeout)
        self.capture.append(bytes(payload))
        return payload
