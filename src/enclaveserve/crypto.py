"""Crypto helpers shared by the substrate, channel, and keystore.

All key material is drawn from caller-supplied ``random.Random`` streams
so virtual-clock runs are reproducible from a seed. The primitives
themselves (X25519, Ed25519, AES-256-GCM, HKDF-SHA256) are real.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16


class DecryptionError(Exception):
    """Authenticated decryption failed (wrong key, nonce, or tampering)."""


def derived_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream for one component of a run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac.digest(key, data, "sha256")


def hmac_verify(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(hmac_sha256(key, data), tag)


def hkdf(secret: bytes, *, salt: bytes, info: bytes, length: int = KEY_LEN) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=length, salt=salt, info=info
    ).derive(secret)


def new_exchange_key(rng: random.Random) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(rng.randbytes(KEY_LEN))


def signing_public_bytes(key: Ed25519PublicKey) -> bytes:
    return key.public_bytes_raw()


def exchange_public_bytes(key: X25519PublicKey) -> bytes:
    return key.public_bytes_raw()


def verify_signature(public_raw: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_raw).verify(signature, message)
        return True
    except Exception:
        return False


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    return AESGCM(key).encrypt(nonce, plaintext, aad)


def aead_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, aad)
    except InvalidTag as exc:
        raise DecryptionError("authentication tag mismatch") from exc


# Sealed-box style public-key encryption: an ephemeral X25519 share plus
# AES-GCM under the HKDF of the shared secret. Used wherever a secret is
# released to the holder of an attested temporary key.

_PK_INFO = b"enclaveserve pk-seal v1"


def pk_encrypt(recipient_public_raw: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    recipient = X25519PublicKey.from_public_bytes(recipient_public_raw)
    eph = new_exchange_key(rng)
    eph_pub = exchange_public_bytes(eph.public_key())
    shared = eph.exchange(recipient)
    key = hkdf(shared, salt=eph_pub + recipient_public_raw, info=_PK_INFO)
    nonce = rng.randbytes(NONCE_LEN)
    return eph_pub + nonce + aead_encrypt(key, nonce, plaintext, aad=eph_pub)


def pk_decrypt(private_key: X25519PrivateKey, blob: bytes) -> bytes:
    if len(blob) < KEY_LEN + NONCE_LEN + TAG_LEN:
        raise DecryptionError("ciphertext too short")
    eph_pub = blob[:KEY_LEN]
    nonce = blob[KEY_LEN : KEY_LEN + NONCE_LEN]
    ct = blob[KEY_LEN + NONCE_LEN :]
    shared = private_key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
    recipient_pub = exchange_public_bytes(private_key.public_key())
    key = hkdf(shared, salt=eph_pub + recipient_pub, info=_PK_INFO)
    return aead_decrypt(key, nonce, ct, aad=eph_pub)
