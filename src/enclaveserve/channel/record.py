"""Authenticated record layer with strict sequencing.

    rec1 | u64 seq | ciphertext

The sequence number rides in the clear but is bound into the AEAD
associated data together with the transcript hash, so it cannot be
altered. Receivers demand exactly the next sequence number: a smaller
one is a replay, a larger one means the stream lost or reordered records,
which is treated as tampering.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .. import crypto
from .errors import RecordTampered, ReplayDetected

_MAGIC = b"rec1"
_HEADER_LEN = len(_MAGIC) + 8


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


def seal_record(session: Session, plaintext: bytes) -> bytes:
    seq = session.send_seq
    nonce = crypto.counter_nonce(seq)
    ct = crypto.aead_encrypt(session.send_key, nonce, plaintext, aad=session._aad(seq))
    session.send_seq = seq + 1
    return _MAGIC + struct.pack(">Q", seq) + ct


def open_record(session: Session, record: bytes) -> bytes:
    if len(record) < _HEADER_LEN + crypto.TAG_LEN or not record.startswith(_MAGIC):
        raise RecordTampered("malformed record")
    (seq,) = struct.unpack_from(">Q", record, len(_MAGIC))
    if seq < session.recv_seq:
        raise ReplayDetected(f"record seq {seq} already consumed")
    if seq > session.recv_seq:
        raise RecordTampered(f"sequence gap: expected {session.recv_seq}, got {seq}")
    nonce = crypto.counter_nonce(seq)
    try:
        plaintext = crypto.aead_decrypt(
            session.recv_key, nonce, record[_HEADER_LEN:], aad=session._aad(seq)
        )
    except crypto.DecryptionError as exc:
        raise RecordTampered("record failed authentication") from exc
    session.recv_seq = seq + 1
    return plaintext
