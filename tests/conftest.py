from __future__ import annotations

import random
from pathlib import Path

import pytest

from enclaveserve.clock import EventLoop
from enclaveserve.confine import reset_taint, taint_events
from enclaveserve.substrate.node import NodeSpec, Substrate

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(autouse=True)
def taint_guard():
    """Private-key confinement holds across the entire suite: any raw-bytes
    export outside the enclave-boundary purposes fails the test."""
    reset_taint()
    yield
    assert taint_events() == [], f"confined secrets leaked via: {taint_events()}"


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def substrate(loop: EventLoop) -> Substrate:
    return Substrate(loop)


def make_node_spec(node_id: str = "node-0", seed: int = 0, **kwargs) -> NodeSpec:
    rng = random.Random(seed)
    return NodeSpec(
        node_id=node_id,
        root_seal_key=rng.randbytes(32),
        platform_attestation_key=rng.randbytes(32),
        **kwargs,
    )


def scaled_to(raw: dict, seconds: float) -> dict:
    """A scenario's raw YAML with every time in it scaled into `seconds`;
    timeouts keep their value."""
    factor = seconds / raw["duration_s"]
    raw["duration_s"] = seconds
    for script in raw.get("interference", []):
        script["windows"] = [[start * factor, end * factor] for start, end in script["windows"]]
    policies = raw.setdefault("policies", {})
    # the control tick follows policies.slo, which only sgx_aware acts on
    slo = policies.setdefault("slo", {"boundary_pages_per_s": 4950.0})
    slo["sample_interval_s"] = slo.get("sample_interval_s", 1.0) * factor
    if "autoscale" in policies:
        policies["autoscale"]["cooldown_s"] = policies["autoscale"].get("cooldown_s", 30.0) * factor
    return raw
