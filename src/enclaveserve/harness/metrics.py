"""Latency recording and percentile reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import EmptySamples

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_REJECTED = "rejected"


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise EmptySamples("cannot take a percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class RequestRecord:
    index: int
    send_ts: float
    complete_ts: float
    endpoint: str
    latency: float
    status: str


class Recorder:
    """Accepts completion events from any context; rows are ordered by send
    time when the report is built."""

    def __init__(self) -> None:
        import threading

        self._lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self.sent = 0

    def count_send(self) -> None:
        with self._lock:
            self.sent += 1

    def record(self, rec: RequestRecord) -> None:
        with self._lock:
            self._records.append(rec)

    def records(self) -> list[RequestRecord]:
        with self._lock:
            return sorted(self._records, key=lambda r: (r.send_ts, r.index))


@dataclass
class RunReport:
    scenario: str
    seed: int
    model: str
    algorithm: str
    duration_s: float
    slo_s: float
    records: list[RequestRecord]
    sent: int
    weight_events: list = field(default_factory=list)
    epc_rows: list[str] = field(default_factory=list)
    service_rows: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_OK)

    @property
    def timed_out(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_TIMEOUT)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_REJECTED)

    @property
    def in_flight_at_cutoff(self) -> int:
        return self.sent - len(self.records)

    def latencies(self) -> list[float]:
        """Every recorded latency; a timeout or a reject counts as `timeout_s`."""
        return [r.latency for r in self.records]

    def percentile(self, p: float) -> float:
        return percentile(self.latencies(), p)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s

    @property
    def slo_met(self) -> bool:
        return self.percentile(99) <= self.slo_s
