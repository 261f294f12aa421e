"""One reader for the length-prefixed formats.

Certificates, sealed blobs and the sealed storage key, the key map and the
provisioning payload, the keystore RPC bodies and the report body are runs
of fixed-width fields and u32-length-prefixed strings. Each is written with
`prefixed` and read front to back by a `Reader`, which raises the format's
own error on a bad magic, a short read, text that is not UTF-8 or a byte
left over: one decode error for any length mismatch, as in RFC 8446 §6.2.

The per-request formats keep their fixed headers and do not come here: the
hellos (`channel/handshake.py`), the record header (`channel/record.py`),
the frame header (`channel/transport.py`), the store object header
(`aecs/store.py`) and the inference response header (`serving/replica.py`).
"""

from __future__ import annotations

import struct

_LENGTH = struct.Struct(">I")


def prefixed(data: bytes) -> bytes:
    """`u32 length | data`."""
    return _LENGTH.pack(len(data)) + data


class Reader:
    """Reads `data` field by field; any fault raises `error`, naming `what`."""

    def __init__(self, data: bytes, error: type[Exception], what: str, magic: bytes = b"") -> None:
        self._data = data
        self._off = 0
        self._error = error
        self._what = what
        if self.take(len(magic)) != magic:
            raise self.fail("bad magic")

    def fail(self, why: str) -> Exception:
        """The error to raise for this format, e.g. for a nested field."""
        return self._error(f"malformed {self._what}: {why}")

    def take(self, n: int) -> bytes:
        end = self._off + n
        if end > len(self._data):
            raise self.fail("truncated")
        field = self._data[self._off : end]
        self._off = end
        return field

    def prefixed(self) -> bytes:
        (n,) = self.unpack(_LENGTH)
        return self.take(n)

    def text(self) -> str:
        try:
            return self.prefixed().decode()
        except UnicodeDecodeError as exc:
            raise self.fail("text is not UTF-8") from exc

    def unpack(self, fields: struct.Struct) -> tuple:
        return fields.unpack(self.take(fields.size))

    def end(self) -> None:
        if self._off != len(self._data):
            raise self.fail("trailing bytes")
