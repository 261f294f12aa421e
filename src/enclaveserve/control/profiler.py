"""Offline paging-boundary profiling.

One replica and one controllable interference enclave share a dedicated
node; for each interference size in the sweep the profiler serves a fixed
request count, measures the average paging throughput from telemetry
deltas, and records latency percentiles. The boundary for an SLO is the
largest measured throughput whose p99 still meets it: a deliberately
conservative choice, since in production the node totals may include pages
that never touch the serving replica.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..clock import EventLoop
from ..profiles import ModelProfile
from ..substrate.node import EnclaveSpec, NodeSpec, Substrate
from .errors import SloUnattainable
from .telemetry import collect, paging_throughput


@dataclass(frozen=True)
class BoundaryPoint:
    interference_epc_bytes: int
    avg_paging_throughput: float
    p90: float
    p95: float
    p99: float


@dataclass
class BoundaryProfile:
    profile_id: str
    points: list[BoundaryPoint] = field(default_factory=list)

    def boundary_for(self, slo: float) -> float:
        """Largest measured throughput whose p99 meets the SLO."""
        if not self.points:
            raise ValueError("empty profile")
        if self.points[0].p99 > slo:
            raise SloUnattainable(
                f"p99 {self.points[0].p99:.4f}s exceeds SLO {slo:.4f}s at zero paging"
            )
        boundary = 0.0
        for point in self.points:
            if point.p99 <= slo:
                boundary = max(boundary, point.avg_paging_throughput)
        return boundary


def _isotonic(points: list[BoundaryPoint]) -> list[BoundaryPoint]:
    """Running-max cleanup so percentile curves never dip as throughput grows."""
    cleaned: list[BoundaryPoint] = []
    hi90 = hi95 = hi99 = 0.0
    for p in points:
        hi90, hi95, hi99 = max(hi90, p.p90), max(hi95, p.p95), max(hi99, p.p99)
        cleaned.append(BoundaryPoint(p.interference_epc_bytes, p.avg_paging_throughput, hi90, hi95, hi99))
    return cleaned


DEFAULT_SWEEP_MIB = (0, 35, 45, 60, 80, 93)
INTERFERENCE_PAGE_RATE = 20000.0


def profile_boundary(
    profile: ModelProfile,
    slo: float,
    *,
    sweep_epc_bytes: Sequence[int] | None = None,
    requests_per_point: int = 2000,
    seed: int = 0,
) -> tuple[BoundaryProfile, float]:
    """Sweep interference sizes and derive (profile, boundary) for the SLO.

    Requests are served closed-loop on an otherwise idle node, isolating
    service latency from queueing.
    """
    from ..substrate.node import MIB

    sweep = (
        list(sweep_epc_bytes)
        if sweep_epc_bytes is not None
        else [mib * MIB for mib in DEFAULT_SWEEP_MIB]
    )
    points: list[BoundaryPoint] = []
    for i, interference_bytes in enumerate(sweep):
        rng = random.Random(seed * 1_000_003 + i)
        points.append(_run_point(profile, interference_bytes, requests_per_point, rng))
    points.sort(key=lambda p: p.avg_paging_throughput)
    result = BoundaryProfile(profile.profile_id, _isotonic(points))
    return result, result.boundary_for(slo)


def _run_point(
    profile: ModelProfile,
    interference_bytes: int,
    requests: int,
    rng: random.Random,
) -> BoundaryPoint:
    from ..harness.metrics import percentile

    loop = EventLoop()
    substrate = Substrate(loop)
    node = substrate.add_node(
        NodeSpec(
            node_id="profiler-node",
            root_seal_key=rng.randbytes(32),
            platform_attestation_key=rng.randbytes(32),
        )
    )
    node.launch_enclave(profile.enclave_spec("profiler-replica"))
    if interference_bytes > 0:
        node.launch_enclave(
            EnclaveSpec(
                enclave_id="profiler-interference",
                measurement=b"\xee" * 32,
                requested_epc_bytes=interference_bytes,
                working_set_bytes=interference_bytes,
                page_access_rate=INTERFERENCE_PAGE_RATE,
            )
        )

    start_sample = collect(node)
    latencies: list[float] = []
    for _ in range(requests):
        service = profile.service_time(node, rng)
        latencies.append(service)
        loop.run(until=loop.now() + service)
    loop.run(until=loop.now() + 1e-9)  # keep the final sample strictly later
    end_sample = collect(node)
    avg_tp = paging_throughput([start_sample, end_sample])
    return BoundaryPoint(
        interference_epc_bytes=interference_bytes,
        avg_paging_throughput=avg_tp,
        p90=percentile(latencies, 90),
        p95=percentile(latencies, 95),
        p99=percentile(latencies, 99),
    )
