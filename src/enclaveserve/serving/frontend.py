"""The service frontend: endpoints, binary weights, and L4-style scheduling.

Weights are 0 or 1. Weight 0 means "no new traffic": the endpoint is
skipped by every algorithm but in-flight connections are left to finish.
A weight is never set directly: it is 1 exactly when the endpoint's hold
set is empty. Each control loop adds and removes only its own hold (the
SLO controller `paging`, the reconciler `drain`) through
`VirtualService.set_hold`, the one writer of `Endpoint.weight`. All three
algorithms break ties by lowest endpoint index, and endpoint order never
changes while weights are reconfigured, so a re-enabled endpoint rejoins
the round-robin rotation at its original position.

The frontend keeps the one active-connection count per endpoint, updated
at dispatch and completion; it never polls replicas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from .errors import NoEligibleEndpoint, UnknownEndpoint

ALGORITHMS = ("rr", "lc", "sed")


@dataclass
class Endpoint:
    endpoint_id: str
    replica: Any
    weight: int = 1
    active_connections: int = 0
    holds: set[str] = field(default_factory=set, init=False)


@dataclass
class WeightChange:
    ts: float
    endpoint_id: str
    old: int
    new: int
    reason: str = ""


class VirtualService:
    def __init__(self, service_id: str, algorithm: str = "rr") -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        self.service_id = service_id
        self.algorithm = algorithm
        self._lock = threading.Lock()
        self._endpoints: list[Endpoint] = []
        self._rr_cursor = -1
        self.weight_log: list[WeightChange] = []

    # -- membership -----------------------------------------------------------

    def add_endpoint(self, endpoint: Endpoint) -> None:
        with self._lock:
            if any(e.endpoint_id == endpoint.endpoint_id for e in self._endpoints):
                raise ValueError(f"endpoint {endpoint.endpoint_id!r} already present")
            self._endpoints.append(endpoint)

    def remove_endpoint(self, endpoint_id: str) -> Endpoint:
        with self._lock:
            for i, ep in enumerate(self._endpoints):
                if ep.endpoint_id == endpoint_id:
                    del self._endpoints[i]
                    if i <= self._rr_cursor:
                        self._rr_cursor -= 1
                    return ep
            raise UnknownEndpoint(endpoint_id)

    def endpoints(self) -> list[Endpoint]:
        with self._lock:
            return list(self._endpoints)

    def endpoint(self, endpoint_id: str) -> Endpoint:
        with self._lock:
            for ep in self._endpoints:
                if ep.endpoint_id == endpoint_id:
                    return ep
            raise UnknownEndpoint(endpoint_id)

    # -- scheduling -------------------------------------------------------------

    def pick_endpoint(self) -> Endpoint:
        with self._lock:
            eps = self._endpoints
            if self.algorithm == "rr":
                n = len(eps)
                for step in range(1, n + 1):
                    idx = (self._rr_cursor + step) % n if n else 0
                    if n and eps[idx].weight == 1:
                        self._rr_cursor = idx
                        return eps[idx]
                raise NoEligibleEndpoint(self.service_id)
            # lc and sed: weights are 0 or 1, so sed's (conns + 1) / weight
            # over the weight-1 endpoints orders them exactly as conns does
            eligible = [(ep.active_connections, i) for i, ep in enumerate(eps) if ep.weight == 1]
            if not eligible:
                raise NoEligibleEndpoint(self.service_id)
            _, idx = min(eligible)
            return eps[idx]

    def set_hold(self, endpoint_id: str, hold: str, held: bool, *, ts: float, reason: str) -> None:
        """Add (`held`) or release one named hold; a weight change this
        makes is logged with `reason`."""
        with self._lock:
            for ep in self._endpoints:
                if ep.endpoint_id == endpoint_id:
                    if held:
                        ep.holds.add(hold)
                    else:
                        ep.holds.discard(hold)
                    weight = 0 if ep.holds else 1
                    if ep.weight != weight:
                        self.weight_log.append(
                            WeightChange(ts, endpoint_id, ep.weight, weight, reason)
                        )
                        ep.weight = weight
                    return
            raise UnknownEndpoint(endpoint_id)

    # -- connection accounting ---------------------------------------------------

    def dispatch(self, endpoint: Endpoint) -> None:
        with self._lock:
            endpoint.active_connections += 1

    def complete(self, endpoint: Endpoint) -> None:
        with self._lock:
            endpoint.active_connections -= 1
            if endpoint.active_connections < 0:
                raise RuntimeError("connection count went negative")
