"""The replicated service->PKI map and its encrypted persistence.

The map is serialized deterministically (entries sorted by service id),
encrypted as one AES-GCM blob under the deployment storage key, and stored
on the untrusted store. Private keys exist in plaintext only inside the
serialization step, whose output feeds the cipher directly.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from .. import crypto
from ..channel.certs import Certificate, ConfinedSigningKey, ServicePki
from ..channel.errors import HandshakeFailure
from ..codec import Reader, prefixed
from ..confine import ConfinedSecret
from .errors import AecsError

_MAGIC = b"keymap-v1"
_HEAD = struct.Struct(">QI")  # version, entry count


@dataclass(frozen=True)
class KeyMapEntry:
    measurement: bytes
    pki: ServicePki


@dataclass
class KeyMap:
    version: int = 0
    entries: dict[str, KeyMapEntry] = field(default_factory=dict)

    def encode(self) -> bytes:
        parts = [_MAGIC, _HEAD.pack(self.version, len(self.entries))]
        for service_id in sorted(self.entries):
            entry = self.entries[service_id]
            pki = encode_pki(entry.pki, "keymap-encrypt")
            parts += (prefixed(service_id.encode()), entry.measurement, pki)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "KeyMap":
        r = Reader(data, AecsError, "key map", _MAGIC)
        version, count = r.unpack(_HEAD)
        entries: dict[str, KeyMapEntry] = {}
        for _ in range(count):
            service_id, measurement = r.text(), r.take(32)
            entries[service_id] = KeyMapEntry(measurement, read_pki(r))
        r.end()
        return cls(version=version, entries=entries)


def encode_pki(pki: ServicePki, purpose: str) -> bytes:
    """`u32 cert_len | cert | private key(32)`: a PKI as the key map holds
    it and as the keystore releases it to an attested enclave."""
    return prefixed(pki.certificate.encode()) + pki.private_key.private_bytes(purpose)


def read_pki(r: Reader) -> ServicePki:
    """Read `encode_pki`'s layout; a bad certificate or key is `r`'s error."""
    cert, private = r.prefixed(), r.take(32)
    try:
        return ServicePki(Certificate.decode(cert), ConfinedSigningKey(private))
    except (HandshakeFailure, ValueError) as exc:
        raise r.fail(str(exc)) from exc


_CIPHER_INFO = b"enclaveserve keymap cipher v1"


def encrypt_keymap(keymap: KeyMap, storage_key: ConfinedSecret, rng: random.Random) -> bytes:
    key = storage_key.reveal("keymap-encrypt")
    nonce = rng.randbytes(crypto.NONCE_LEN)
    return nonce + crypto.aead_encrypt(key, nonce, keymap.encode(), aad=_CIPHER_INFO)


def decrypt_keymap(blob: bytes, storage_key: ConfinedSecret) -> KeyMap:
    if len(blob) < crypto.NONCE_LEN + crypto.TAG_LEN:
        raise AecsError("key map blob too short")
    key = storage_key.reveal("keymap-encrypt")
    try:
        plain = crypto.aead_decrypt(
            key, blob[: crypto.NONCE_LEN], blob[crypto.NONCE_LEN :], aad=_CIPHER_INFO
        )
    except crypto.DecryptionError as exc:
        raise AecsError("key map blob does not decrypt under the storage key") from exc
    return KeyMap.decode(plain)
