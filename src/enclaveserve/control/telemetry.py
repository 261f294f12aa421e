"""EPC telemetry: per-node samples and windowed paging throughput.

Samples carry node totals only. Swapped pages are deliberately not
attributed to individual enclaves: co-resident enclaves share the counters
exactly as the node's own accounting exposes them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..substrate.node import Node
from ..substrate.paging import PAGE_BYTES
from .errors import InsufficientSamples, NodeUnreachable


@dataclass(frozen=True)
class EnclaveObservation:
    enclave_id: str
    measurement_hex: str
    resident_pages: int
    system_flag: bool


@dataclass(frozen=True)
class EpcSample:
    node_id: str
    timestamp: float
    pages_in_total: int
    pages_out_total: int
    enclaves: tuple[EnclaveObservation, ...]

    def enclaves_json(self) -> str:
        return json.dumps(
            [
                {
                    "id": e.enclave_id,
                    "measurement": e.measurement_hex,
                    "resident_pages": e.resident_pages,
                    "system": e.system_flag,
                }
                for e in self.enclaves
            ],
            separators=(",", ":"),
        )


def collect(node: Node) -> EpcSample:
    """One consistent snapshot of a node's EPC state, timestamped by the
    node's clock."""
    if node.unreachable:
        raise NodeUnreachable(node.node_id)
    state = node.paging_state()
    enclaves = tuple(
        EnclaveObservation(
            spec.enclave_id,
            spec.measurement.hex(),
            state.resident_bytes[spec.enclave_id] // PAGE_BYTES,
            spec.system_enclave,
        )
        for spec in state.enclaves
    )
    return EpcSample(
        node_id=state.node_id,
        timestamp=node.clock.now(),
        pages_in_total=state.pages_in_total,
        pages_out_total=state.pages_out_total,
        enclaves=enclaves,
    )


class NodeTelemetry:
    """Bounded sample history for one node, enforcing timestamp monotonicity."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._samples: deque[EpcSample] = deque(maxlen=128)

    def add(self, sample: EpcSample) -> None:
        if sample.node_id != self.node_id:
            raise ValueError("sample from a different node")
        if self._samples and sample.timestamp <= self._samples[-1].timestamp:
            raise ValueError("timestamps must be strictly increasing per node")
        self._samples.append(sample)

    def window(self, k: int) -> list[EpcSample]:
        if k < 1:
            raise ValueError("window must be >= 1")
        return list(self._samples)[-k:]

    def __len__(self) -> int:
        return len(self._samples)


def paging_throughput(samples: Sequence[EpcSample]) -> float:
    """(delta pages_in + delta pages_out) / delta t across the window."""
    if len(samples) < 2:
        raise InsufficientSamples(f"{len(samples)} sample(s), need at least 2")
    first, last = samples[0], samples[-1]
    dt = last.timestamp - first.timestamp
    if dt <= 0:
        raise InsufficientSamples("window spans no time")
    d_in = last.pages_in_total - first.pages_in_total
    d_out = last.pages_out_total - first.pages_out_total
    return (d_in + d_out) / dt


# -- CSV export schemas (documented, stable column order) ------------------------

EPC_CSV_HEADER = "ts,node,pages_in,pages_out,enclaves_json"
SERVICE_CSV_HEADER = "ts,service,endpoint,weight,conns,util"


def epc_csv_row(sample: EpcSample) -> str:
    return (
        f"{sample.timestamp!r},{sample.node_id},{sample.pages_in_total},"
        f"{sample.pages_out_total},\"{sample.enclaves_json().replace(chr(34), chr(34) * 2)}\""
    )


def service_csv_row(
    ts: float, service: str, endpoint: str, weight: int, conns: int, util: float
) -> str:
    return f"{ts!r},{service},{endpoint},{weight},{conns},{util!r}"
