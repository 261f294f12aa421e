"""Reactive replica autoscaling on in-service CPU utilization.

Only replicas actually taking traffic (weight 1) contribute to the
aggregate; with nothing in service the count holds, since a controller
that zeroed every weight gives the scaler no usable signal. The count the
scaler starts from is the one the reconciler was last asked for, so a
replica still draining after a scale-down is not counted back in, and the
count changes at most once per cooldown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ScalePolicy:
    service_id: str
    target_utilization: float
    min_replicas: int
    max_replicas: int
    cooldown: float = 30.0

    def __post_init__(self) -> None:
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if self.min_replicas > self.max_replicas:
            raise ValueError("min_replicas must be <= max_replicas")
        if self.min_replicas < 0 or self.cooldown < 0:
            raise ValueError("min_replicas and cooldown must be nonnegative")


def autoscale_step(
    policy: ScalePolicy, current_count: int, in_service_utilizations: Sequence[float]
) -> int:
    """Desired replica count for one cycle (no cooldown applied here)."""
    if not in_service_utilizations:
        return current_count
    in_service = len(in_service_utilizations)
    avg = sum(in_service_utilizations) / in_service
    desired = math.ceil(in_service * avg / policy.target_utilization)
    return max(policy.min_replicas, min(policy.max_replicas, desired))


class Autoscaler:
    """Stateful wrapper adding the cooldown between count changes."""

    def __init__(self, policy: ScalePolicy) -> None:
        self.policy = policy
        self._last_change: float | None = None

    def step(
        self, now: float, current_count: int, in_service_utilizations: Sequence[float]
    ) -> int:
        if self._last_change is not None and now - self._last_change < self.policy.cooldown:
            return current_count
        desired = autoscale_step(self.policy, current_count, in_service_utilizations)
        if desired != current_count:
            self._last_change = now
        return desired
