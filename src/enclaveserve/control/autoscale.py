"""Reactive replica autoscaling on in-service CPU utilization.

Only replicas actually taking traffic (weight 1) contribute to the
aggregate; with nothing in service the count holds, since a controller
that zeroed every weight gives the scaler no usable signal. The count the
scaler starts from is the one the reconciler was last asked for, so a
replica still draining after a scale-down is not counted back in, and the
count changes at most once per cooldown.

`AutoscaleSettings` is the scenario's `policies.autoscale` section itself,
checked once by `validate()`; the scaler reads it as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class AutoscaleSettings:
    """`validate()` checks every field when `enabled` is set, and only
    then is an `Autoscaler` built."""

    enabled: bool = False
    target_utilization: float = 0.6
    min_replicas: int = 1
    max_replicas: int = 6
    cooldown_s: float = 30.0


def autoscale_step(
    settings: AutoscaleSettings, current_count: int, in_service_utilizations: Sequence[float]
) -> int:
    """Desired replica count for one cycle (no cooldown applied here)."""
    if not in_service_utilizations:
        return current_count
    in_service = len(in_service_utilizations)
    avg = sum(in_service_utilizations) / in_service
    desired = math.ceil(in_service * avg / settings.target_utilization)
    return max(settings.min_replicas, min(settings.max_replicas, desired))


class Autoscaler:
    """Stateful wrapper adding the cooldown between count changes."""

    def __init__(self, settings: AutoscaleSettings) -> None:
        self.settings = settings
        self._last_change: float | None = None

    def step(
        self, now: float, current_count: int, in_service_utilizations: Sequence[float]
    ) -> int:
        if self._last_change is not None and now - self._last_change < self.settings.cooldown_s:
            return current_count
        desired = autoscale_step(self.settings, current_count, in_service_utilizations)
        if desired != current_count:
            self._last_change = now
        return desired
