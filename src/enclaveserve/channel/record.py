"""Authenticated record layer with strict sequencing.

    rec1 | u64 seq | ciphertext

The sequence number rides in the clear but is bound into the AEAD
associated data together with the transcript hash, so it cannot be
altered. Receivers demand exactly the next sequence number: a smaller
one is a replay, a larger one means the stream lost or reordered records,
which is treated as tampering.

`seal_record` and `open_record` return bytes, or, given a writable buffer
`out`, write the record (or the plaintext) to the start of `out` and
return a memoryview of those bytes. The caller owns `out`: the view is
valid until the caller writes to `out` again, so anything that must
outlive that (a traffic capture, say) takes a `bytes` copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .. import crypto
from .errors import RecordTampered, ReplayDetected

_MAGIC = b"rec1"
_HEADER = struct.Struct(">4sQ")
# a sealed record is its plaintext plus this many bytes
RECORD_OVERHEAD = _HEADER.size + crypto.TAG_LEN


@dataclass
class Session:
    """One established connection's keys and counters. Not shareable across
    logical connections; distinct sessions are fully independent."""

    send_key: bytes
    recv_key: bytes
    transcript_hash: bytes
    send_seq: int = 0
    recv_seq: int = 0
    resumed: bool = False  # keys came from a PSK ticket rather than a certificate

    def _aad(self, seq: int) -> bytes:
        return b"record" + struct.pack(">Q", seq) + self.transcript_hash


def _prefix(out, size: int) -> memoryview:
    if len(out) < size:
        raise ValueError(f"out holds {len(out)} bytes, {size} needed")
    return memoryview(out)[:size]


def seal_record(session: Session, plaintext, out=None):
    seq = session.send_seq
    nonce = crypto.counter_nonce(seq)
    aad = session._aad(seq)
    if out is None:
        ct = crypto.aead_encrypt(session.send_key, nonce, plaintext, aad=aad)
        record = _HEADER.pack(_MAGIC, seq) + ct
    else:
        record = _prefix(out, len(plaintext) + RECORD_OVERHEAD)
        _HEADER.pack_into(record, 0, _MAGIC, seq)
        body = record[_HEADER.size :]
        crypto.aead_encrypt(session.send_key, nonce, plaintext, aad=aad, out=body)
    session.send_seq = seq + 1
    return record


def open_record(session: Session, record, out=None):
    if len(record) < RECORD_OVERHEAD or record[: len(_MAGIC)] != _MAGIC:
        raise RecordTampered("malformed record")
    (seq,) = struct.unpack_from(">Q", record, len(_MAGIC))
    if seq < session.recv_seq:
        raise ReplayDetected(f"record seq {seq} already consumed")
    if seq > session.recv_seq:
        raise RecordTampered(f"sequence gap: expected {session.recv_seq}, got {seq}")
    if out is not None:
        out = _prefix(out, len(record) - RECORD_OVERHEAD)
    nonce = crypto.counter_nonce(seq)
    try:
        plaintext = crypto.aead_decrypt(
            session.recv_key, nonce, record[_HEADER.size :], aad=session._aad(seq), out=out
        )
    except crypto.DecryptionError as exc:
        raise RecordTampered("record failed authentication") from exc
    session.recv_seq = seq + 1
    return plaintext
