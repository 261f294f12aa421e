"""Untrusted versioned object stores.

The store is availability infrastructure only: everything sensitive that
lands here is already encrypted. Two backends share one contract, which
`_VersionedStore` implements for both:

  get(name)                    -> (bytes, version)
  put(name, data, expected)    -> new version, or VersionConflict
  create_if_absent(name, data) -> version 1 for exactly one caller

Versions start at 1 and increase by 1 per successful put.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from pathlib import Path
from typing import Protocol

from .errors import ObjectExists, ObjectMissing, VersionConflict


class UntrustedStore(Protocol):
    def get(self, name: str) -> tuple[bytes, int]: ...

    def put(self, name: str, data: bytes, expected_version: int) -> int: ...

    def create_if_absent(self, name: str, data: bytes) -> int: ...


class _VersionedStore:
    """The contract, written once over a backend's `_load(name)` (None if
    absent) and `_save(name, data, version)`, both called under the lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def _current(self, name: str) -> tuple[bytes, int]:
        stored = self._load(name)
        if stored is None:
            raise ObjectMissing(name)
        return stored

    def get(self, name: str) -> tuple[bytes, int]:
        with self._lock:
            return self._current(name)

    def put(self, name: str, data: bytes, expected_version: int) -> int:
        with self._lock:
            _, current = self._current(name)
            if current != expected_version:
                raise VersionConflict(f"{name}: expected v{expected_version}, at v{current}")
            self._save(name, data, current + 1)
            return current + 1

    def create_if_absent(self, name: str, data: bytes) -> int:
        with self._lock:
            if self._load(name) is not None:
                raise ObjectExists(name)
            self._save(name, data, 1)
            return 1


class MemoryStore(_VersionedStore):
    """In-process store for tests and virtual-clock runs; thread-safe."""

    def __init__(self) -> None:
        super().__init__()
        self._objects: dict[str, tuple[bytes, int]] = {}

    def _load(self, name: str) -> tuple[bytes, int] | None:
        return self._objects.get(name)

    def _save(self, name: str, data: bytes, version: int) -> None:
        self._objects[name] = (bytes(data), version)

    def dump(self) -> dict[str, bytes]:
        """All stored bytes, for never-plaintext scans."""
        with self._lock:
            return {name: data for name, (data, _) in self._objects.items()}


_HEADER = struct.Struct(">8sQ")
_MAGIC = b"storeob1"


class DirectoryStore(_VersionedStore):
    """One file per object under a directory; used by CLI runs.

    Single-process safety only: writers are serialized by an in-process
    lock and files are replaced atomically.
    """

    def __init__(self, root: Path | str) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
        return self.root / f"{safe}.obj"

    def _load(self, name: str) -> tuple[bytes, int] | None:
        path = self._path(name)
        if not path.exists():
            return None
        raw = path.read_bytes()
        if len(raw) < _HEADER.size or not raw.startswith(_MAGIC):
            raise ObjectMissing(f"corrupt object file {path}")
        _, version = _HEADER.unpack_from(raw)
        return raw[_HEADER.size :], version

    def _save(self, name: str, data: bytes, version: int) -> None:
        path = self._path(name)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(_HEADER.pack(_MAGIC, version) + data)
        os.replace(tmp, path)

    def dump(self) -> dict[str, bytes]:
        # a file's stem is its object's name with the unsafe characters replaced
        with self._lock:
            return {p.stem: self._load(p.stem)[0] for p in sorted(self.root.glob("*.obj"))}
