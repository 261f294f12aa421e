"""Model-server replicas.

A replica serves only after acquiring its service PKI: it generates a
temporary X25519 pair inside its enclave, creates a report whose user data
is the hash of the temporary public key, asks the keystore to provision the
PKI, and decrypts the response in-enclave. Every replica of a service ends
up presenting the byte-identical certificate, which is what makes frontend
failover invisible to clients.

Inference itself is a calibrated stub: the response echoes the payload,
and the runner draws the service time from the model profile's one rule
(`ModelProfile.service_time`) on the replica's node when service starts.
"""

from __future__ import annotations

import random
import struct
import threading
from collections import deque

from .. import crypto
from ..aecs.errors import AecsError
from ..aecs.service import decode_pki
from ..aecs.wire import AecsClient, ProvisionRequest
from ..channel.certs import ServicePki
from ..substrate.errors import SubstrateError
from ..substrate.node import EnclaveHandle, EnclaveSpec, Node
from .errors import EnclaveLaunchFailed, ProvisioningFailed


class ModelServerReplica:
    def __init__(
        self,
        replica_id: str,
        service_id: str,
        node: Node,
        enclave: EnclaveHandle,
        pki: ServicePki,
        parallelism: int = 1,
    ) -> None:
        self.replica_id = replica_id
        self.service_id = service_id
        self.node = node
        self.enclave = enclave
        self.pki = pki
        self.parallelism = parallelism
        self._lock = threading.Lock()
        self._closed_busy: deque[tuple[float, float]] = deque()
        self._open_busy: dict[int, float] = {}
        self._busy_token = 0
        self.crashed = False

    @property
    def certificate(self):
        return self.pki.certificate

    # -- busy-time accounting -------------------------------------------------------

    def begin_request(self, now: float) -> int:
        with self._lock:
            self._busy_token += 1
            self._open_busy[self._busy_token] = now
            return self._busy_token

    def end_request(self, token: int, now: float) -> None:
        with self._lock:
            start = self._open_busy.pop(token)
            self._closed_busy.append((start, now))

    def busy_time(self, window_start: float, now: float) -> float:
        with self._lock:
            while self._closed_busy and self._closed_busy[0][1] < window_start:
                self._closed_busy.popleft()
            total = 0.0
            for start, end in self._closed_busy:
                total += max(0.0, min(end, now) - max(start, window_start))
            for start in self._open_busy.values():
                total += max(0.0, now - max(start, window_start))
            return total


def replica_cpu_utilization(replica: ModelServerReplica, window: float, now: float) -> float:
    """Busy time over the window divided by (window x parallelism), in [0, 1]."""
    if window <= 0:
        raise ValueError("window must be positive")
    busy = replica.busy_time(now - window, now)
    return min(1.0, busy / (window * replica.parallelism))


def start_replica(
    service_id: str,
    replica_id: str,
    aecs_client: AecsClient,
    node: Node,
    enclave_spec: EnclaveSpec,
    rng: random.Random,
    parallelism: int = 1,
) -> ModelServerReplica:
    """Launch the enclave, run the provisioning flow, and return a replica
    ready to serve. The temporary private key never leaves this function."""
    try:
        enclave = node.launch_enclave(enclave_spec)
    except SubstrateError as exc:
        raise EnclaveLaunchFailed(str(exc)) from exc
    try:
        temp = crypto.new_exchange_key(rng)
        temp_pub = crypto.exchange_public_bytes(temp.public_key())
        report = enclave.create_report(crypto.sha256(temp_pub))
        ciphertext = aecs_client.provision_pki(ProvisionRequest(service_id, report, temp_pub))
        pki = decode_pki(crypto.pk_decrypt(temp, ciphertext))
    except (AecsError, crypto.DecryptionError, ValueError) as exc:
        node.terminate_enclave(enclave)
        raise ProvisioningFailed(str(exc)) from exc
    return ModelServerReplica(replica_id, service_id, node, enclave, pki, parallelism)


def stop_replica(replica: ModelServerReplica) -> None:
    if replica.enclave.running:
        replica.node.terminate_enclave(replica.enclave)


def crash_replica(replica: ModelServerReplica) -> None:
    """Simulate an abrupt failure; the reconciler restores it next cycle."""
    replica.crashed = True
    stop_replica(replica)


# -- inference response ----------------------------------------------------------------

# `service_time ‖ payload`: the header comes first, so a response can be
# built in place ahead of a payload that already sits in a buffer
RESPONSE_HEADER = struct.Struct(">d")


def encode_inference_response(payload: bytes, service_time: float) -> bytes:
    return RESPONSE_HEADER.pack(service_time) + payload


def decode_inference_response(plaintext: bytes) -> tuple[bytes, float]:
    (service_time,) = RESPONSE_HEADER.unpack_from(plaintext, 0)
    return plaintext[RESPONSE_HEADER.size :], service_time

