"""EPC telemetry: collecting node samples and the paging throughput
between two of them.

A sample is the node's own snapshot, `Node.paging_state()`: node totals
only, so co-resident enclaves share the swap counters exactly as the
node's accounting exposes them. The cluster runner keeps each node's last
successful sample, and a control cycle's throughput is the counter delta
from it to the next, spanning any collection gap in between.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..substrate.node import EpcSample, Node
from .errors import InsufficientSamples, NodeUnreachable


def collect(node: Node) -> EpcSample:
    """The node's snapshot, or NodeUnreachable while it is cut off."""
    if node.unreachable:
        raise NodeUnreachable(node.node_id)
    return node.paging_state()


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
    enclaves_json = json.dumps(
        [
            {
                "id": e.enclave_id,
                "measurement": e.measurement_hex,
                "resident_pages": e.resident_pages,
                "system": e.system_flag,
            }
            for e in sample.enclaves
        ],
        separators=(",", ":"),
    )
    return (
        f"{sample.timestamp!r},{sample.node_id},{sample.pages_in_total},"
        f"{sample.pages_out_total},\"{enclaves_json.replace(chr(34), chr(34) * 2)}\""
    )


def service_csv_row(
    ts: float, service: str, endpoint: str, weight: int, conns: int, util: float
) -> str:
    return f"{ts!r},{service},{endpoint},{weight},{conns},{util!r}"
