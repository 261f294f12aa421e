"""Self-signed service certificates and confined private keys.

The wire encoding is a deterministic length-prefixed binary layout (not
X.509): clients compare certificates by byte equality, so any two encodings
of the same certificate must be identical.

    cert-v1 | u32 subject_len | subject | pubkey(32) |
    f64 not_before | f64 not_after | signature(64)

The self-signature covers everything before it.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import cached_property

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .. import crypto
from ..codec import Reader, prefixed
from ..confine import ConfinedSecret
from .errors import HandshakeFailure

_MAGIC = b"cert-v1"
_VALIDITY = struct.Struct(">dd")
SIGNATURE_LEN = 64
DEFAULT_VALIDITY_SECONDS = 7 * 86400.0
# Signed only to derive the ticket key: no certificate body (cert-v1...) or
# handshake transcript (enclaveserve transcript...) starts with it.
_TICKET_KEY_LABEL = b"enclaveserve session-ticket key v1"


@dataclass(frozen=True)
class Certificate:
    subject: str
    public_key: bytes
    not_before: float
    not_after: float
    self_signature: bytes

    def signed_body(self) -> bytes:
        return _signed_body(self.subject, self.public_key, self.not_before, self.not_after)

    def encode(self) -> bytes:
        return self._encoding

    @cached_property
    def _encoding(self) -> bytes:
        return self.signed_body() + self.self_signature

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        r = Reader(data, HandshakeFailure, "certificate", _MAGIC)
        subject, public_key = r.text(), r.take(32)
        not_before, not_after = r.unpack(_VALIDITY)
        signature = r.take(SIGNATURE_LEN)
        r.end()
        if not subject:
            raise r.fail("empty subject")
        return cls(subject, public_key, not_before, not_after, signature)


def _signed_body(subject: str, public_key: bytes, not_before: float, not_after: float) -> bytes:
    return b"".join(
        (_MAGIC, prefixed(subject.encode()), public_key, _VALIDITY.pack(not_before, not_after))
    )


class ConfinedSigningKey:
    """Ed25519 private key that signs freely but exports raw bytes only
    through declared enclave-boundary purposes (see ``confine``)."""

    def __init__(self, raw: bytes) -> None:
        if len(raw) != 32:
            raise ValueError("signing key must be 32 bytes")
        self._secret = ConfinedSecret(raw)
        self._key = Ed25519PrivateKey.from_private_bytes(raw)

    @classmethod
    def generate(cls, rng: random.Random) -> "ConfinedSigningKey":
        return cls(rng.randbytes(32))

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)

    def public_bytes(self) -> bytes:
        return crypto.signing_public_bytes(self._key.public_key())

    def private_bytes(self, purpose: str) -> bytes:
        return self._secret.reveal(purpose)

    def __repr__(self) -> str:
        return "ConfinedSigningKey(<redacted>)"


@dataclass(frozen=True)
class ServicePki:
    """A certificate plus its confined private key: the unit the keystore
    generates for one service and synchronizes across its replicas."""

    certificate: Certificate
    private_key: ConfinedSigningKey

    def __post_init__(self) -> None:
        if self.private_key.public_bytes() != self.certificate.public_key:
            raise ValueError("private key does not match certificate public key")

    @cached_property
    def ticket_key(self) -> bytes:
        """AES key sealing this service's resumption tickets. Ed25519
        signatures are deterministic (RFC 8032), so every replica holding
        the PKI derives the same key; neither it nor the signature it comes
        from ever goes on the wire."""
        signature = self.private_key.sign(_TICKET_KEY_LABEL)
        return crypto.hkdf(signature, salt=b"", info=b"ticket key")


def generate_pki(
    subject: str,
    rng: random.Random,
    *,
    now: float = 0.0,
) -> ServicePki:
    if not subject:
        raise ValueError("subject must be non-empty")
    key = ConfinedSigningKey.generate(rng)
    fields = (subject, key.public_bytes(), now, now + DEFAULT_VALIDITY_SECONDS)
    return ServicePki(Certificate(*fields, self_signature=key.sign(_signed_body(*fields))), key)
