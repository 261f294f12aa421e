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

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .. import crypto
from .errors import RecordTampered, ReplayDetected

_MAGIC = b"rec1"
_HEADER = struct.Struct(">4sQ")
# the 12-byte AES-GCM nonce: four zero bytes, then the sequence number
_NONCE = struct.Struct(">4xQ")
_AAD = struct.Struct(">6sQ")
# a sealed record is its plaintext plus this many bytes
RECORD_OVERHEAD = _HEADER.size + crypto.TAG_LEN


@dataclass(slots=True)
class Session:
    """One established connection's keys and counters. Not shareable across
    logical connections; distinct sessions are fully independent."""

    send_key: bytes
    recv_key: bytes
    transcript_hash: bytes
    send_seq: int = 0
    recv_seq: int = 0
    resumed: bool = False  # keys came from a PSK ticket rather than a certificate


def _aad(session: Session, seq: int) -> bytes:
    return _AAD.pack(b"record", seq) + session.transcript_hash


def _prefix(out, size: int) -> memoryview:
    if len(out) < size:
        raise ValueError(f"out holds {len(out)} bytes, {size} needed")
    return memoryview(out)[:size]


def seal_record(session: Session, plaintext, out=None):
    seq = session.send_seq
    aead = AESGCM(session.send_key)
    if out is None:
        record = _HEADER.pack(_MAGIC, seq) + aead.encrypt(
            _NONCE.pack(seq), plaintext, _aad(session, seq)
        )
    else:
        record = _prefix(out, len(plaintext) + RECORD_OVERHEAD)
        _HEADER.pack_into(record, 0, _MAGIC, seq)
        aead.encrypt_into(_NONCE.pack(seq), plaintext, _aad(session, seq), record[_HEADER.size :])
    session.send_seq = seq + 1
    return record


def open_record(session: Session, record, out=None):
    if len(record) < RECORD_OVERHEAD or record[: len(_MAGIC)] != _MAGIC:
        raise RecordTampered("malformed record")
    _, seq = _HEADER.unpack_from(record)
    if seq < session.recv_seq:
        raise ReplayDetected(f"record seq {seq} already consumed")
    if seq > session.recv_seq:
        raise RecordTampered(f"sequence gap: expected {session.recv_seq}, got {seq}")
    aead = AESGCM(session.recv_key)
    nonce, aad, body = _NONCE.pack(seq), _aad(session, seq), record[_HEADER.size :]
    plaintext = None if out is None else _prefix(out, len(record) - RECORD_OVERHEAD)
    try:
        if plaintext is None:
            plaintext = aead.decrypt(nonce, body, aad)
        else:
            aead.decrypt_into(nonce, body, aad, plaintext)
    except InvalidTag as exc:
        if out is not None:
            # decrypt_into can leave unauthenticated plaintext in `out`
            plaintext[:] = bytes(len(plaintext))
        raise RecordTampered("record failed authentication") from exc
    session.recv_seq = seq + 1
    return plaintext
