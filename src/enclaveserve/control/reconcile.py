"""Deployment reconciliation: keep the running replica set at the desired
count, restart crashes, and drain before stopping on scale-down.

Placement is a static ordered pool of (replica id, node id) slots; the
first `desired` slots are the target set, and `desired` is kept for the
autoscaler to scale from. Scale-down victims get a `drain` hold, the only
hold the reconciler touches, and are stopped through `stopper` once their
connections drain (or `DRAIN_TIMEOUT_S` passes); a crashed replica is
stopped the same way before its restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..serving.frontend import Endpoint, VirtualService
from ..serving.replica import ModelServerReplica
from .errors import PlacementFailure

DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ReconcileAction:
    kind: str  # "start" | "restart" | "drain" | "stop"
    replica_id: str
    node_id: str = ""


class Reconciler:
    def __init__(
        self,
        vs: VirtualService,
        placements: list[tuple[str, str]],
        starter: Callable[[str, str], ModelServerReplica],
        stopper: Callable[[ModelServerReplica], None],
    ) -> None:
        self.vs = vs
        self.placements = list(placements)
        self.starter = starter
        self.stopper = stopper
        self.desired = 0
        self.replicas: dict[str, ModelServerReplica] = {}
        self._draining: dict[str, float] = {}

    def _start(self, replica_id: str, node_id: str) -> None:
        self.replicas[replica_id] = replica = self.starter(replica_id, node_id)
        self.vs.add_endpoint(Endpoint(endpoint_id=replica_id, replica=replica))

    def _stop(self, replica_id: str) -> None:
        replica = self.replicas.pop(replica_id)
        self.vs.remove_endpoint(replica_id)
        self._draining.pop(replica_id, None)
        self.stopper(replica)

    def step(self, now: float, desired_count: int) -> list[ReconcileAction]:
        """One reconcile cycle; returns the actions taken, in order."""
        if desired_count > len(self.placements):
            raise PlacementFailure(
                f"want {desired_count} replicas but only {len(self.placements)} placements"
            )
        self.desired = desired_count
        actions: list[ReconcileAction] = []
        target = dict(self.placements[:desired_count])

        # restart crashed replicas that should be running
        for replica_id in list(self.replicas):
            replica = self.replicas[replica_id]
            if replica_id in target and (replica.crashed or not replica.enclave.running):
                self._stop(replica_id)
                self._start(replica_id, target[replica_id])
                actions.append(ReconcileAction("restart", replica_id, target[replica_id]))

        # start missing replicas
        for replica_id, node_id in target.items():
            if replica_id not in self.replicas:
                self._start(replica_id, node_id)
                actions.append(ReconcileAction("start", replica_id, node_id))

        # drain then stop the excess
        for replica_id in list(self.replicas):
            if replica_id in target:
                if self._draining.pop(replica_id, None) is not None:
                    # scale-up wants a draining replica back
                    self.vs.set_hold(replica_id, "drain", False, ts=now, reason="scale-up")
                continue
            if replica_id not in self._draining:
                self.vs.set_hold(replica_id, "drain", True, ts=now, reason="scale-down-drain")
                self._draining[replica_id] = now
                actions.append(ReconcileAction("drain", replica_id))
                continue
            drained = self.vs.endpoint(replica_id).active_connections == 0
            if drained or now - self._draining[replica_id] >= DRAIN_TIMEOUT_S:
                node_id = self.replicas[replica_id].node.node_id
                self._stop(replica_id)
                actions.append(ReconcileAction("stop", replica_id, node_id))
        return actions
