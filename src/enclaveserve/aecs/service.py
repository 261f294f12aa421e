"""Keystore replicas: bootstrap, PKI lifecycle, and attested release.

One deployment runs several replicas, each inside a substrate enclave with
the deployment's own measurement. Replicas share no channel except the
untrusted store (CAS) and the attested storage-key fetch; whichever replica
wins the create-if-absent race on the leader marker generates the storage
key, everyone else recovers it by unsealing a local blob or fetching it
from a serving peer after remote attestation.

Bootstrap's peer polling and the CAS back-off wait on the replica's clock,
so on the virtual clock they take no time.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .. import crypto
from ..channel.certs import Certificate, ServicePki, generate_pki
from ..clock import Clock
from ..codec import Reader
from ..confine import ConfinedSecret
from ..substrate.attest import PlatformRegistry, verify_report
from ..substrate.errors import AttestationError, UnsealFailure
from ..substrate.node import EnclaveHandle
from ..substrate.sealing import SealedBlob
from . import wire
from .errors import (
    AecsError,
    AttestationMismatch,
    BindingMismatch,
    BootstrapTimeout,
    NotServing,
    ObjectExists,
    ObjectMissing,
    ServiceExists,
    StoreConflictExhausted,
    UnknownService,
    VersionConflict,
)
from .keymap import KeyMap, KeyMapEntry, decrypt_keymap, encode_pki, encrypt_keymap, read_pki
from .store import UntrustedStore

GENERATION_LEN = 16
_SEALED_MAGIC = b"aecs-seal-v1"

LEADER_OBJECT = "aecs/leader"
KEYMAP_OBJECT = "aecs/keymap"
MAX_CAS_RETRIES = 8
# the back-off before CAS retry n is a uniform fraction of this x 2**n
CAS_BACKOFF_S = 0.002
# a replica with neither the election nor a sealed blob polls for a serving
# peer this many times, this far apart, then gives up (5 s in all)
BOOTSTRAP_POLLS = 2500
BOOTSTRAP_POLL_S = 0.002

# default code identity of the keystore enclave itself; replicas attest to
# this measurement when fetching the storage key from a peer
AECS_MEASUREMENT = crypto.sha256(b"enclave:aecs-deployment-v1")


@dataclass
class AecsDeployment:
    """Cluster-wide configuration and instrumentation shared by replicas."""

    measurement: bytes
    registry: PlatformRegistry
    store: UntrustedStore
    _peers: list["AecsReplica"] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    generation_events: int = 0
    ra_fetch_calls: int = 0

    def register(self, replica: "AecsReplica") -> None:
        with self._lock:
            if replica not in self._peers:
                self._peers.append(replica)

    def unregister(self, replica: "AecsReplica") -> None:
        with self._lock:
            if replica in self._peers:
                self._peers.remove(replica)

    def serving_peers(self, exclude: "AecsReplica") -> list["AecsReplica"]:
        with self._lock:
            return [p for p in self._peers if p is not exclude and p.serving]

    def count_generation(self) -> None:
        with self._lock:
            self.generation_events += 1

    def count_ra_fetch(self) -> None:
        with self._lock:
            self.ra_fetch_calls += 1


class AecsReplica:
    """One keystore backend, hosted by a substrate enclave."""

    def __init__(
        self,
        replica_id: str,
        enclave: EnclaveHandle,
        deployment: AecsDeployment,
        sealed_path: Path | str,
        rng: random.Random,
        clock: Clock,
    ) -> None:
        self.replica_id = replica_id
        self.enclave = enclave
        self.deployment = deployment
        self.sealed_path = Path(sealed_path)
        self._rng = rng
        self._clock = clock
        self._storage_key: ConfinedSecret | None = None
        self._generation: bytes | None = None
        self._mutate_lock = threading.Lock()
        self.serving = False

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(self) -> None:
        """Obtain the deployment storage key, then start serving.

        The key comes from winning the election, from the local sealed blob
        or from a serving peer after attestation, tried in that order; a
        corrupt or stale sealed blob silently falls back to the peer fetch.
        """
        store = self.deployment.store
        generation = self._rng.randbytes(GENERATION_LEN)
        try:
            store.create_if_absent(LEADER_OBJECT, generation)
        except ObjectExists:
            generation, _ = store.get(LEADER_OBJECT)
            if not self._try_unseal(generation):
                self._fetch_from_peers(generation)
        else:
            self._adopt(generation, ConfinedSecret(self._rng.randbytes(32)))
            self.deployment.count_generation()
        self._ensure_keymap_object()
        self.serving = True
        self.deployment.register(self)

    def shutdown(self) -> None:
        self.serving = False
        self._storage_key = None
        self._generation = None
        self.deployment.unregister(self)

    def _adopt(self, generation: bytes, key: ConfinedSecret) -> None:
        self._generation = generation
        self._storage_key = key
        plaintext = _SEALED_MAGIC + generation + key.reveal("seal")
        blob = self.enclave.seal(plaintext)
        self.sealed_path.parent.mkdir(parents=True, exist_ok=True)
        self.sealed_path.write_bytes(blob.encode())

    def _try_unseal(self, current_generation: bytes) -> bool:
        try:
            blob = SealedBlob.decode(self.sealed_path.read_bytes())
            plaintext = self.enclave.unseal(blob)
            generation, key = _read_storage_key(plaintext, UnsealFailure, _SEALED_MAGIC)
        except (FileNotFoundError, UnsealFailure):
            return False
        if generation != current_generation:  # stale blob from an earlier round
            return False
        self._generation, self._storage_key = generation, key
        return True

    def _fetch_from_peers(self, generation: bytes) -> None:
        """Poll for a serving peer until one releases the storage key."""
        for _ in range(BOOTSTRAP_POLLS):
            for peer in self.deployment.serving_peers(exclude=self):
                try:
                    self._fetch_from_peer(peer, generation)
                    return
                except (AttestationMismatch, BindingMismatch, NotServing):
                    continue
            self._clock.sleep(BOOTSTRAP_POLL_S)
        raise BootstrapTimeout(
            f"replica {self.replica_id!r}: no sealed blob and no serving peer answered"
        )

    def _fetch_from_peer(self, peer: "AecsReplica", generation: bytes) -> None:
        temp = crypto.new_exchange_key(self._rng)
        temp_pub = crypto.exchange_public_bytes(temp.public_key())
        report = self.enclave.create_report(crypto.sha256(temp_pub))
        req = wire.ProvisionRequest("aecs", report, temp_pub)
        self.deployment.count_ra_fetch()
        payload = crypto.pk_decrypt(temp, peer.client().fetch_storage_key(req))
        fetched_generation, key = _read_storage_key(payload, BindingMismatch)
        if fetched_generation != generation:
            raise NotServing("peer serving a different generation")
        self._adopt(generation, key)

    def _ensure_keymap_object(self) -> None:
        key, store = self._require_key(), self.deployment.store
        try:
            store.get(KEYMAP_OBJECT)
        except ObjectMissing:
            with contextlib.suppress(ObjectExists):
                store.create_if_absent(KEYMAP_OBJECT, encrypt_keymap(KeyMap(), key, self._rng))

    def _require_key(self) -> ConfinedSecret:
        if self._storage_key is None:
            raise NotServing(f"replica {self.replica_id!r} has not completed bootstrap")
        return self._storage_key

    # -- key-map access -------------------------------------------------------

    def _load_map(self) -> tuple[KeyMap, int]:
        key = self._require_key()
        data, version = self.deployment.store.get(KEYMAP_OBJECT)
        return decrypt_keymap(data, key), version

    def _mutate(self, apply) -> None:
        """CAS loop with reread-merge: `apply` edits a fresh KeyMap in place
        (and may raise); bounded retries, then StoreConflictExhausted."""
        key = self._require_key()
        with self._mutate_lock:
            for attempt in range(MAX_CAS_RETRIES):
                keymap, store_version = self._load_map()
                apply(keymap)
                keymap.version += 1
                blob = encrypt_keymap(keymap, key, self._rng)
                try:
                    self.deployment.store.put(KEYMAP_OBJECT, blob, store_version)
                    return
                except VersionConflict:
                    self._clock.sleep(CAS_BACKOFF_S * (2**attempt) * self._rng.random())
            raise StoreConflictExhausted(
                f"gave up after {MAX_CAS_RETRIES} CAS attempts"
            )

    # -- RPC operations ---------------------------------------------------------

    def create_service_pki(self, service_id: str, code_measurement: bytes) -> Certificate:
        """Generate and register a PKI; only the certificate leaves."""
        pki = generate_pki(service_id, self._rng, now=self._clock.now())

        def apply(keymap: KeyMap) -> None:
            if service_id in keymap.entries:
                raise ServiceExists(service_id)
            keymap.entries[service_id] = KeyMapEntry(code_measurement, pki)

        self._mutate(apply)
        return pki.certificate

    def get_certificate(self, service_id: str) -> Certificate:
        keymap, _ = self._load_map()
        try:
            return keymap.entries[service_id].pki.certificate
        except KeyError:
            raise UnknownService(service_id) from None

    def delete_service_pki(self, service_id: str) -> None:
        def apply(keymap: KeyMap) -> None:
            if service_id not in keymap.entries:
                raise UnknownService(service_id)
            del keymap.entries[service_id]

        self._mutate(apply)

    def _check_release(self, req: wire.ProvisionRequest, expected_measurement: bytes) -> None:
        """Attestation gate shared by every secret-release path."""
        try:
            verify_report(req.enclave_report, expected_measurement, self.deployment.registry)
        except AttestationError as exc:
            raise AttestationMismatch(str(exc)) from exc
        if req.enclave_report.report_data != crypto.sha256(req.temp_public_key):
            raise BindingMismatch("report does not bind the presented temporary key")

    def provision_pki(self, req: wire.ProvisionRequest) -> bytes:
        """Release a service PKI, encrypted to the attested temporary key."""
        keymap, _ = self._load_map()
        try:
            entry = keymap.entries[req.service_id]
        except KeyError:
            raise UnknownService(req.service_id) from None
        self._check_release(req, entry.measurement)
        plaintext = encode_pki(entry.pki, "provision-encrypt")
        return crypto.pk_encrypt(req.temp_public_key, plaintext, self._rng)

    def fetch_storage_key(self, req: wire.ProvisionRequest) -> bytes:
        """Release the storage key to a new replica of this same deployment."""
        key = self._require_key()
        self._check_release(req, self.deployment.measurement)
        assert self._generation is not None
        plaintext = self._generation + key.reveal("provision-encrypt")
        return crypto.pk_encrypt(req.temp_public_key, plaintext, self._rng)

    # -- wire server ---------------------------------------------------------

    def handle_frame(self, frame: bytes) -> bytes:
        """Serve one framed RPC; errors travel back as status codes."""
        try:
            if len(frame) < 2 or frame[0] != wire.VERSION:
                raise AecsError("malformed request frame")
            opcode, body = frame[1], frame[2:]
            if opcode == wire.OP_CREATE:
                cert = self.create_service_pki(*wire.decode_create_body(body))
                return wire.ok_response(cert.encode())
            if opcode == wire.OP_GET_CERT:
                cert = self.get_certificate(wire.decode_service_id(body))
                return wire.ok_response(cert.encode())
            if opcode == wire.OP_PROVISION:
                return wire.ok_response(self.provision_pki(wire.decode_provision_body(body)))
            if opcode == wire.OP_FETCH_KEY:
                return wire.ok_response(self.fetch_storage_key(wire.decode_provision_body(body)))
            if opcode == wire.OP_DELETE:
                self.delete_service_pki(wire.decode_service_id(body))
                return wire.ok_response()
            raise AecsError(f"unknown opcode {opcode}")
        except AecsError as exc:
            return wire.error_response(exc)
        except ValueError as exc:  # generate_pki rejects an empty service id
            return wire.error_response(AecsError(f"malformed request: {exc}"))

    def client(self, capture: list[bytes] | None = None) -> wire.AecsClient:
        """Loopback client over the wire surface; frames can be captured
        for traffic byte-scans."""

        def send(request: bytes) -> bytes:
            if capture is not None:
                capture.append(bytes(request))
            response = self.handle_frame(request)
            if capture is not None:
                capture.append(bytes(response))
            return response

        return wire.AecsClient(send)


def _read_storage_key(data: bytes, error: type, magic: bytes = b"") -> tuple[bytes, ConfinedSecret]:
    """`magic | generation(16) | storage key(32)`, as sealed to the local
    blob (with a magic) or released by a peer (without)."""
    r = Reader(data, error, "storage-key payload", magic)
    generation, key = r.take(GENERATION_LEN), ConfinedSecret(r.take(32))
    r.end()
    return generation, key


def decode_pki(plaintext: bytes) -> ServicePki:
    """Parse the provisioning payload back into a PKI (inside the enclave);
    a malformed payload is a ValueError."""
    r = Reader(plaintext, ValueError, "PKI payload")
    pki = read_pki(r)
    r.end()
    return pki
