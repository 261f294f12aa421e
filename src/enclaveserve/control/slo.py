"""The paging-aware SLO controller.

Threshold-based and reactive: when a node's paging throughput stays above
theta x boundary for N consecutive cycles, the replica on that node gets a
`paging` hold, which stops its new traffic (weight 0); the hold goes once
no interference enclaves other than the replica itself and system enclaves
remain on the node. It is the only hold the controller touches, so it
never undoes a reconciler drain. A missing sample resets the streak,
failing safe toward keeping traffic flowing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serving.frontend import VirtualService
from .telemetry import EpcSample


@dataclass(frozen=True)
class SloPolicy:
    service_id: str
    slo_p99: float
    boundary_pages_per_s: float
    threshold_fraction: float = 0.70
    consecutive_cycles: int = 5
    sample_interval: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold_fraction <= 1:
            raise ValueError("threshold_fraction must be in (0, 1]")
        if self.consecutive_cycles < 1:
            raise ValueError("consecutive_cycles must be >= 1")
        if self.boundary_pages_per_s <= 0:
            raise ValueError("boundary must be positive")
        if self.slo_p99 <= 0 or self.sample_interval <= 0:
            raise ValueError("slo_p99 and sample_interval must be positive")

    @property
    def trigger_threshold(self) -> float:
        return self.threshold_fraction * self.boundary_pages_per_s


@dataclass(frozen=True)
class NodeObservation:
    """One control cycle's view of a node: None throughput means the sample
    was missed this cycle."""

    throughput: float | None
    enclaves: tuple[tuple[str, bool], ...] = ()  # (enclave_id, system_flag)

    def interference_clear(self, own_enclave_id: str) -> bool:
        return all(system or eid == own_enclave_id for eid, system in self.enclaves)


def observation_from_samples(samples: list[EpcSample]) -> NodeObservation:
    """Build a cycle observation from the last two samples of a node."""
    if len(samples) < 2:
        return NodeObservation(throughput=None)
    from .telemetry import paging_throughput

    last = samples[-1]
    return NodeObservation(
        throughput=paging_throughput(samples[-2:]),
        enclaves=tuple((e.enclave_id, e.system_flag) for e in last.enclaves),
    )


@dataclass(frozen=True)
class WeightAction:
    endpoint_id: str
    weight: int  # the weight the paging hold asks for: 0 adds it, 1 releases it
    reason: str


class SloController:
    """Per-service controller; one sequential sample->decide->actuate loop."""

    def __init__(self, policy: SloPolicy, vs: VirtualService) -> None:
        self.policy = policy
        self.vs = vs
        self._streaks: dict[str, int] = {}
        self.missing_cycles = 0  # cycles in which some node's sample was missing

    def step(self, observations: dict[str, NodeObservation], now: float = 0.0) -> list[WeightAction]:
        """Run one control cycle and return the paging-hold changes issued.

        `observations` maps node id -> NodeObservation. Actuation is
        idempotent: re-running a step after a missed tick is harmless.
        """
        actions: list[WeightAction] = []
        threshold = self.policy.trigger_threshold
        missing = False
        for ep in self.vs.endpoints():
            replica = ep.replica
            node_id = replica.node.node_id
            own_enclave = replica.enclave.spec.enclave_id
            obs = observations.get(node_id)
            if obs is None or obs.throughput is None:
                missing = True
                self._streaks[ep.endpoint_id] = 0
                continue
            if obs.throughput > threshold:
                streak = self._streaks.get(ep.endpoint_id, 0) + 1
            else:
                streak = 0
            self._streaks[ep.endpoint_id] = streak
            held = "paging" in ep.holds
            if not held and streak >= self.policy.consecutive_cycles:
                actions.append(WeightAction(ep.endpoint_id, 0, "paging-above-boundary"))
            elif held and obs.interference_clear(own_enclave):
                actions.append(WeightAction(ep.endpoint_id, 1, "interference-clear"))
        if missing:
            self.missing_cycles += 1
        for action in actions:
            adding = action.weight == 0
            self.vs.set_hold(action.endpoint_id, "paging", adding, ts=now, reason=action.reason)
        return actions
