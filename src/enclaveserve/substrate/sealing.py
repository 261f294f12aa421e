"""Sealing: encrypt enclave data for untrusted persistence.

The seal key is derived from the node's root sealing key and the sealing
enclave's measurement, so a blob opens only on the same node by an enclave
running the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import crypto
from ..codec import Reader, prefixed
from .errors import UnsealFailure

_MAGIC = b"sealed-v1"
_SEAL_INFO = b"enclaveserve seal v1"


@dataclass(frozen=True)
class SealedBlob:
    node_id: str
    measurement: bytes
    nonce: bytes
    ciphertext: bytes
    auth_tag: bytes

    def encode(self) -> bytes:
        nid, ciphertext = prefixed(self.node_id.encode()), prefixed(self.ciphertext)
        return b"".join((_MAGIC, nid, self.measurement, self.nonce, ciphertext, self.auth_tag))

    @classmethod
    def decode(cls, data: bytes) -> "SealedBlob":
        r = Reader(data, UnsealFailure, "sealed blob", _MAGIC)
        node_id, measurement, nonce = r.text(), r.take(32), r.take(crypto.NONCE_LEN)
        blob = cls(node_id, measurement, nonce, r.prefixed(), r.take(crypto.TAG_LEN))
        r.end()
        return blob


def derive_seal_key(root_seal_key: bytes, measurement: bytes) -> bytes:
    return crypto.hkdf(root_seal_key, salt=b"seal-key", info=_SEAL_INFO + measurement)


def seal_bytes(
    root_seal_key: bytes, node_id: str, measurement: bytes, nonce: bytes, plaintext: bytes
) -> SealedBlob:
    key = derive_seal_key(root_seal_key, measurement)
    blob = crypto.aead_encrypt(key, nonce, plaintext, aad=_SEAL_INFO)
    return SealedBlob(node_id, measurement, nonce, blob[:-crypto.TAG_LEN], blob[-crypto.TAG_LEN:])


def unseal_bytes(root_seal_key: bytes, measurement: bytes, blob: SealedBlob) -> bytes:
    """Decrypt with the key this node+measurement would derive; reject otherwise."""
    key = derive_seal_key(root_seal_key, measurement)
    try:
        return crypto.aead_decrypt(
            key, blob.nonce, blob.ciphertext + blob.auth_tag, aad=_SEAL_INFO
        )
    except crypto.DecryptionError as exc:
        raise UnsealFailure("sealed blob does not open under this node and measurement") from exc
