"""Model profiles: the calibrated inference stubs.

Each profile stands in for one served model. `service_time`, the one
rule both clocks and the profiler serve by, is the profile's base time
under a multiplicative lognormal jitter (sigma around 0.13 puts the idle
p99 near 1.35x the base), then inflated by node paging. SLOs sit at
roughly 4x the idle p99, and each profile's enclave footprint fixes how it
shares a node's EPC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .substrate.node import MIB, EnclaveSpec, Node


@dataclass(frozen=True)
class ModelProfile:
    profile_id: str
    base_time_s: float
    jitter_sigma: float
    slo_s: float
    enclave_requested_bytes: int
    enclave_working_set_bytes: int
    enclave_page_rate: float

    def sample_base_time(self, rng: random.Random) -> float:
        if self.jitter_sigma <= 0:
            return self.base_time_s
        return self.base_time_s * rng.lognormvariate(0.0, self.jitter_sigma)

    def service_time(self, node: Node, rng: random.Random) -> float:
        """One request's service time on `node`, starting now: a jittered
        base time inflated by the node's current paging."""
        return node.service_latency(self.sample_base_time(rng))

    def measurement(self) -> bytes:
        import hashlib

        return hashlib.sha256(f"model:{self.profile_id}".encode()).digest()

    def enclave_spec(self, enclave_id: str) -> EnclaveSpec:
        return EnclaveSpec(
            enclave_id=enclave_id,
            measurement=self.measurement(),
            requested_epc_bytes=self.enclave_requested_bytes,
            working_set_bytes=self.enclave_working_set_bytes,
            page_access_rate=self.enclave_page_rate,
        )


PRESETS: dict[str, ModelProfile] = {
    profile.profile_id: profile
    for profile in (
        ModelProfile(
            profile_id="mobilenet_v1_float",
            base_time_s=0.020,
            jitter_sigma=0.13,
            slo_s=0.100,
            enclave_requested_bytes=96 * MIB,
            enclave_working_set_bytes=60 * MIB,
            enclave_page_rate=2000.0,
        ),
        ModelProfile(
            profile_id="mobilenet_v1_quant",
            base_time_s=0.018,
            jitter_sigma=0.13,
            slo_s=0.100,
            enclave_requested_bytes=96 * MIB,
            enclave_working_set_bytes=55 * MIB,
            enclave_page_rate=2000.0,
        ),
        ModelProfile(
            profile_id="efficientnet_lite_float",
            base_time_s=0.100,
            jitter_sigma=0.13,
            slo_s=0.500,
            enclave_requested_bytes=96 * MIB,
            enclave_working_set_bytes=70 * MIB,
            enclave_page_rate=2500.0,
        ),
        ModelProfile(
            profile_id="efficientnet_lite_quant",
            base_time_s=0.120,
            jitter_sigma=0.13,
            slo_s=0.600,
            enclave_requested_bytes=96 * MIB,
            enclave_working_set_bytes=65 * MIB,
            enclave_page_rate=2500.0,
        ),
    )
}
