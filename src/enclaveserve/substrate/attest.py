"""Simulated attestation reports.

A report binds (measurement, node, caller-chosen report_data) under a
symmetric per-platform key held by a trusted registry, standing in for the
vendor quote chain: the verify-measurement-and-binding contract is kept,
the PKI machinery behind real quotes is not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import crypto
from ..codec import prefixed
from .errors import MeasurementMismatch, PlatformTagInvalid, UnknownPlatform

MEASUREMENT_LEN = 32
REPORT_DATA_LEN = 32


@dataclass(frozen=True)
class EnclaveReport:
    measurement: bytes
    node_id: str
    report_data: bytes
    platform_tag: bytes

    def body(self) -> bytes:
        return report_body(self.measurement, self.node_id, self.report_data)


def report_body(measurement: bytes, node_id: str, report_data: bytes) -> bytes:
    return b"".join((b"report-v1", measurement, prefixed(node_id.encode()), report_data))


def make_report(
    platform_key: bytes, measurement: bytes, node_id: str, report_data: bytes
) -> EnclaveReport:
    if len(measurement) != MEASUREMENT_LEN:
        raise ValueError("measurement must be 32 bytes")
    if len(report_data) != REPORT_DATA_LEN:
        raise ValueError("report_data must be 32 bytes")
    tag = crypto.hmac_sha256(platform_key, report_body(measurement, node_id, report_data))
    return EnclaveReport(measurement, node_id, report_data, tag)


class PlatformRegistry:
    """Verifier-side trust anchor: node id -> platform attestation key."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register(self, node_id: str, platform_key: bytes) -> None:
        self._keys[node_id] = platform_key

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._keys

    def key_for(self, node_id: str) -> bytes:
        try:
            return self._keys[node_id]
        except KeyError:
            raise UnknownPlatform(f"no platform key registered for node {node_id!r}") from None


def verify_report(
    report: EnclaveReport, expected_measurement: bytes, registry: PlatformRegistry
) -> None:
    """Accept iff the platform tag is authentic and the measurement matches.

    Raises UnknownPlatform / PlatformTagInvalid / MeasurementMismatch.
    """
    key = registry.key_for(report.node_id)
    if not crypto.hmac_verify(key, report.body(), report.platform_tag):
        raise PlatformTagInvalid(f"invalid platform tag for node {report.node_id!r}")
    if report.measurement != expected_measurement:
        raise MeasurementMismatch(
            f"report measurement {report.measurement.hex()[:16]}... does not match expected"
        )
