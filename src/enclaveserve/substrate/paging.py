"""Paging-throughput and latency-inflation models.

They reproduce the orderings the rest of the stack depends on (zero
throughput without over-commitment, latency monotone in throughput, 5x at
the full-thrash reference rate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .node import EnclaveSpec

DEFAULT_T_REF_PAGES_PER_S = 1.0e4
PAGE_BYTES = 4096
# latency slope: full thrash (paging == t_ref) costs (1 + KAPPA)x the base
KAPPA = 4.0


def overflow_throughput(epc_usable_bytes: int, enclaves: Iterable[EnclaveSpec]) -> float:
    """Overflow fraction of the total working set, times the total access rate.

    overflow_fraction = max(0, sum(ws) - epc_usable) / sum(ws)
    """
    specs = list(enclaves)
    total_ws = sum(e.working_set_bytes for e in specs)
    if total_ws <= epc_usable_bytes or total_ws == 0:
        return 0.0
    fraction = (total_ws - epc_usable_bytes) / total_ws
    return fraction * sum(e.page_access_rate for e in specs)


def inflate_latency(
    base: float, paging: float, t_ref: float = DEFAULT_T_REF_PAGES_PER_S
) -> float:
    """latency = base * (1 + KAPPA * paging / t_ref)."""
    if base <= 0:
        raise ValueError("base latency must be positive")
    if paging < 0:
        raise ValueError("paging throughput must be nonnegative")
    return base * (1.0 + KAPPA * paging / t_ref)
