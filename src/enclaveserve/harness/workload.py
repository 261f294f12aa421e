"""Open-loop Poisson workload generation.

The full arrival stream is drawn up front from the scenario seed, so send
times cannot depend on response latencies and identical seeds give
identical streams. Both functions read the validated `ScenarioConfig`:
its `workload` section, `duration_s`, `seed` and `service_id`.
"""

from __future__ import annotations

import hashlib
import random

from .scenario import ScenarioConfig


def generate_arrivals(config: ScenarioConfig) -> list[float]:
    """Send offsets in [0, duration): i.i.d. exponential gaps, mean 1/rate."""
    rate = config.workload.rate_per_s
    rng = random.Random(config.seed)
    arrivals: list[float] = []
    t = rng.expovariate(rate)
    while t < config.duration_s:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


def request_payload(config: ScenarioConfig, index: int) -> bytes:
    """Deterministic opaque payload for request `index`."""
    seed = hashlib.sha256(f"{config.service_id}:{config.seed}:{index}".encode()).digest()
    size = config.workload.payload_bytes
    reps = (size + len(seed) - 1) // len(seed)
    return (seed * reps)[:size]
