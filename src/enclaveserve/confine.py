"""Confinement wrappers for secrets that must never leave an enclave boundary.

Raw bytes of a confined secret are reachable only through ``reveal(purpose)``.
Purposes on the allowlist correspond to enclave-boundary operations whose
output is encrypted before leaving (plus ``audit``, used by tests to obtain
needles for byte-scans). Any other purpose records a taint event; the test
suite asserts after every test that none occurred.
"""

from __future__ import annotations

import threading
from typing import Iterable

ALLOWED_PURPOSES = frozenset(
    {
        "keymap-encrypt",   # private keys serialized into the AES-GCM'd key map
        "provision-encrypt",  # PKI encrypted under an attested temporary key
        "seal",             # storage key sealed to local node storage
        "audit",            # read-only diagnostics / byte-scan needles
    }
)

_lock = threading.Lock()
_events: list[str] = []


def taint_events() -> list[str]:
    with _lock:
        return list(_events)


def reset_taint() -> None:
    with _lock:
        _events.clear()


def record(purposes: Iterable[str]) -> None:
    """Record taint events; also how a forked worker's events, sent back
    with each batch's result, reach the process that forked it."""
    with _lock:
        _events.extend(purposes)


class ConfinedSecret:
    """A byte secret whose raw form is gated behind declared purposes."""

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes) -> None:
        self._raw = bytes(raw)

    def reveal(self, purpose: str) -> bytes:
        if purpose not in ALLOWED_PURPOSES:
            record([purpose])
        return self._raw

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConfinedSecret):
            import hmac

            return hmac.compare_digest(self._raw, other._raw)
        return NotImplemented

    def __hash__(self) -> int:  # stable but non-revealing
        import hashlib

        return int.from_bytes(hashlib.sha256(self._raw).digest()[:8], "big")

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return f"ConfinedSecret(<{len(self._raw)} bytes redacted>)"
