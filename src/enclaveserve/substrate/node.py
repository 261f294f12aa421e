"""Nodes, enclaves, and EPC residency accounting.

Each node serializes its mutations through one lock (the per-node substrate
authority). The node's paging throughput changes only when its enclave set
does, so `launch_enclave` and `terminate_enclave` recompute it, after the
counters have integrated the old rate up to that instant; the counters and
`service_latency` read the cached value. `paging_state()` is the node's one
telemetry snapshot, an `EpcSample` taken under the lock and timestamped by
the node's clock, so a sample reflects everything scheduled before it.

A node can be over-committed: launches never fail for capacity, the paging
model absorbs the overflow. Residency under contention is split in
proportion to working-set demand and always sums to at most the usable EPC.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..clock import Clock
from . import attest, sealing
from .errors import DuplicateEnclave, EnclaveNotRunning
from .paging import DEFAULT_T_REF_PAGES_PER_S, PAGE_BYTES, inflate_latency, overflow_throughput

MIB = 1024 * 1024
DEFAULT_EPC_USABLE_BYTES = 93 * MIB


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    root_seal_key: bytes
    platform_attestation_key: bytes
    epc_usable_bytes: int = DEFAULT_EPC_USABLE_BYTES

    def __post_init__(self) -> None:
        if self.epc_usable_bytes <= 0:
            raise ValueError("epc_usable_bytes must be positive")
        if len(self.root_seal_key) != 32 or len(self.platform_attestation_key) != 32:
            raise ValueError("node keys must be 32 bytes")


@dataclass(frozen=True)
class EnclaveSpec:
    enclave_id: str
    measurement: bytes
    requested_epc_bytes: int
    working_set_bytes: int
    page_access_rate: float = 0.0
    system_enclave: bool = False

    def __post_init__(self) -> None:
        if len(self.measurement) != 32:
            raise ValueError("measurement must be 32 bytes")
        if self.requested_epc_bytes <= 0:
            raise ValueError("requested_epc_bytes must be positive")
        if not 0 <= self.working_set_bytes <= self.requested_epc_bytes:
            raise ValueError("working_set_bytes must be within [0, requested_epc_bytes]")
        if self.page_access_rate < 0:
            raise ValueError("page_access_rate must be nonnegative")


@dataclass(frozen=True)
class EnclaveObservation:
    enclave_id: str
    measurement_hex: str
    resident_pages: int
    system_flag: bool


@dataclass(frozen=True)
class EpcSample:
    """Telemetry snapshot of one node, mirroring a driver's proc files.

    It carries node totals only: swapped pages are not attributed to
    individual enclaves, which share the counters as the node keeps them.
    """

    node_id: str
    timestamp: float
    pages_in_total: int
    pages_out_total: int
    enclaves: tuple[EnclaveObservation, ...]


@dataclass
class EnclaveHandle:
    node: "Node"
    spec: EnclaveSpec
    running: bool = True

    def create_report(self, report_data: bytes) -> attest.EnclaveReport:
        return self.node.create_report(self, report_data)

    def seal(self, plaintext: bytes) -> sealing.SealedBlob:
        return self.node.seal(self, plaintext)

    def unseal(self, blob: sealing.SealedBlob) -> bytes:
        return self.node.unseal(self, blob)


class Node:
    def __init__(
        self,
        spec: NodeSpec,
        clock: Clock,
        t_ref: float = DEFAULT_T_REF_PAGES_PER_S,
    ) -> None:
        self.spec = spec
        self.t_ref = t_ref
        self.clock = clock
        self._lock = threading.RLock()
        self._enclaves: dict[str, EnclaveHandle] = {}
        self._pages_in = 0.0
        self._pages_out = 0.0
        self._throughput = 0.0  # of the current enclave set: none yet
        self._last_advance = clock.now()
        self._seal_counter = 0
        # fault injection: telemetry collection fails while this is set
        self.unreachable: bool = False

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    # -- enclave lifecycle --------------------------------------------------

    def launch_enclave(self, spec: EnclaveSpec) -> EnclaveHandle:
        with self._lock:
            self._advance()
            if spec.enclave_id in self._enclaves:
                raise DuplicateEnclave(
                    f"enclave {spec.enclave_id!r} already running on {self.node_id!r}"
                )
            handle = EnclaveHandle(self, spec)
            self._enclaves[spec.enclave_id] = handle
            self._recompute_throughput()
            return handle

    def terminate_enclave(self, handle: EnclaveHandle) -> None:
        with self._lock:
            self._advance()
            existing = self._enclaves.get(handle.spec.enclave_id)
            if existing is not handle or not handle.running:
                raise EnclaveNotRunning(f"enclave {handle.spec.enclave_id!r} is not running")
            handle.running = False
            del self._enclaves[handle.spec.enclave_id]
            self._recompute_throughput()

    def enclave_handle(self, enclave_id: str) -> EnclaveHandle | None:
        with self._lock:
            return self._enclaves.get(enclave_id)

    # -- paging accounting ---------------------------------------------------

    def _advance(self) -> None:
        now = self.clock.now()
        dt = now - self._last_advance
        if dt > 0:
            # page-in and page-out move in lockstep when the EPC is full
            self._pages_in += self._throughput * dt / 2.0
            self._pages_out += self._throughput * dt / 2.0
        self._last_advance = now

    def _recompute_throughput(self) -> None:
        self._throughput = overflow_throughput(
            self.spec.epc_usable_bytes, [h.spec for h in self._enclaves.values()]
        )

    def service_latency(self, base: float) -> float:
        """Base latency inflated by the node's current paging throughput."""
        # one attribute read, atomic without the lock
        return inflate_latency(base, self._throughput, self.t_ref)

    def paging_state(self) -> EpcSample:
        with self._lock:
            self._advance()
            specs = [h.spec for h in self._enclaves.values()]
            total_ws = sum(s.working_set_bytes for s in specs)
            epc = self.spec.epc_usable_bytes
            fits = total_ws <= epc  # else split in proportion to working-set demand
            enclaves = tuple(
                EnclaveObservation(
                    s.enclave_id,
                    s.measurement.hex(),
                    (s.working_set_bytes if fits else epc * s.working_set_bytes // total_ws)
                    // PAGE_BYTES,
                    s.system_enclave,
                )
                for s in specs
            )
            return EpcSample(
                node_id=self.node_id,
                timestamp=self._last_advance,  # the clock's now, read by _advance
                pages_in_total=int(self._pages_in),
                pages_out_total=int(self._pages_out),
                enclaves=enclaves,
            )

    def proc_snapshot(self) -> str:
        """Stable textual export, one `id measurement resident_pages flag`
        line per enclave, then a `pages_in pages_out` stats line."""
        state = self.paging_state()
        lines = [
            f"{e.enclave_id} {e.measurement_hex} {e.resident_pages} {int(e.system_flag)}"
            for e in state.enclaves
        ]
        lines.append(f"{state.pages_in_total} {state.pages_out_total}")
        return "\n".join(lines) + "\n"

    # -- enclave-boundary operations ------------------------------------------

    def _require_running(self, handle: EnclaveHandle) -> None:
        if not handle.running or self._enclaves.get(handle.spec.enclave_id) is not handle:
            raise EnclaveNotRunning(f"enclave {handle.spec.enclave_id!r} is not running")

    def create_report(self, handle: EnclaveHandle, report_data: bytes) -> attest.EnclaveReport:
        with self._lock:
            self._require_running(handle)
            return attest.make_report(
                self.spec.platform_attestation_key,
                handle.spec.measurement,
                self.node_id,
                report_data,
            )

    def seal(self, handle: EnclaveHandle, plaintext: bytes) -> sealing.SealedBlob:
        with self._lock:
            self._require_running(handle)
            self._seal_counter += 1
            nonce = bytes(4) + self._seal_counter.to_bytes(8, "big")
            return sealing.seal_bytes(
                self.spec.root_seal_key, self.node_id, handle.spec.measurement, nonce, plaintext
            )

    def unseal(self, handle: EnclaveHandle, blob: sealing.SealedBlob) -> bytes:
        with self._lock:
            self._require_running(handle)
            return sealing.unseal_bytes(self.spec.root_seal_key, handle.spec.measurement, blob)


class Substrate:
    """The cluster: every node plus the verifier-trusted platform registry."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.registry = attest.PlatformRegistry()
        self._nodes: dict[str, Node] = {}

    def add_node(
        self,
        spec: NodeSpec,
        t_ref: float = DEFAULT_T_REF_PAGES_PER_S,
    ) -> Node:
        if spec.node_id in self._nodes:
            raise ValueError(f"node {spec.node_id!r} already exists")
        node = Node(spec, self.clock, t_ref)
        self._nodes[spec.node_id] = node
        self.registry.register(spec.node_id, spec.platform_attestation_key)
        return node

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes
