"""The paging-aware SLO controller.

Threshold-based and reactive: when a node's paging throughput stays above
theta x boundary for N consecutive cycles, the replica on that node gets a
`paging` hold, which stops its new traffic (weight 0); the hold goes once
no interference enclaves other than the replica itself and system enclaves
remain on the node. It is the only hold the controller touches, so it
never undoes a reconciler drain. A missing sample resets the streak,
failing safe toward keeping traffic flowing.

`SloSettings` is the scenario's `policies.slo` section itself: the loader
builds it and `validate()` checks it, so the controller re-checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serving.frontend import VirtualService
from .telemetry import EpcSample, paging_throughput


@dataclass(frozen=True)
class SloSettings:
    boundary_pages_per_s: float
    theta: float = 0.70
    consecutive_cycles: int = 5
    sample_interval_s: float = 1.0


@dataclass(frozen=True)
class NodeObservation:
    """One control cycle's view of a node: None throughput means the sample
    was missed this cycle."""

    throughput: float | None
    enclaves: tuple[tuple[str, bool], ...] = ()  # (enclave_id, system_flag)

    def interference_clear(self, own_enclave_id: str) -> bool:
        return all(system or eid == own_enclave_id for eid, system in self.enclaves)


def observation_from_samples(previous: EpcSample | None, last: EpcSample) -> NodeObservation:
    """Build a cycle observation from a node's last two successful samples;
    with no earlier sample there is no throughput yet."""
    if previous is None:
        return NodeObservation(throughput=None)
    return NodeObservation(
        throughput=paging_throughput((previous, last)),
        enclaves=tuple((e.enclave_id, e.system_flag) for e in last.enclaves),
    )


@dataclass(frozen=True)
class WeightAction:
    endpoint_id: str
    weight: int  # the weight the paging hold asks for: 0 adds it, 1 releases it
    reason: str


class SloController:
    """Per-service controller; one sequential sample->decide->actuate loop."""

    def __init__(self, settings: SloSettings, vs: VirtualService) -> None:
        self.settings = settings
        self.threshold = settings.theta * settings.boundary_pages_per_s
        self.vs = vs
        self._streaks: dict[str, int] = {}
        self.missing_cycles = 0  # cycles in which some node's sample was missing

    def step(self, observations: dict[str, NodeObservation], now: float = 0.0) -> list[WeightAction]:
        """Run one control cycle and return the paging-hold changes issued.

        `observations` maps node id -> NodeObservation. Actuation is
        idempotent: re-running a step after a missed tick is harmless.
        """
        actions: list[WeightAction] = []
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
            if obs.throughput > self.threshold:
                streak = self._streaks.get(ep.endpoint_id, 0) + 1
            else:
                streak = 0
            self._streaks[ep.endpoint_id] = streak
            held = "paging" in ep.holds
            if not held and streak >= self.settings.consecutive_cycles:
                actions.append(WeightAction(ep.endpoint_id, 0, "paging-above-boundary"))
            elif held and obs.interference_clear(own_enclave):
                actions.append(WeightAction(ep.endpoint_id, 1, "interference-clear"))
        if missing:
            self.missing_cycles += 1
        for action in actions:
            adding = action.weight == 0
            self.vs.set_hold(action.endpoint_id, "paging", adding, ts=now, reason=action.reason)
        return actions
