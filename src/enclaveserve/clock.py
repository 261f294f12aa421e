"""Clocks and the discrete-event scheduler used by virtual-clock runs.

Virtual runs are single-threaded: every timed action is an event on one
heap, ordered by (time, insertion sequence), so a fixed schedule replays
identically. Real-clock mode uses the monotonic wall clock and ordinary
threads instead of this loop.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable


class Clock:
    """Read-only time source."""

    def now(self) -> float:
        raise NotImplementedError


class RealClock(Clock):
    """Monotonic wall clock, zeroed at construction."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0


class EventLoop(Clock):
    """Discrete-event scheduler doubling as the virtual clock.

    Ties at the same timestamp fire in scheduling order, which keeps
    runs deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        if when < self._now:
            raise ValueError(f"cannot schedule event in the past: {when} < {self._now}")
        heapq.heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self._now + delay, fn)

    def run(self, until: float | None = None) -> None:
        """Fire events in order; stop when the heap drains or `until` passes.

        With `until` set, the clock is left exactly at `until` and any
        later events stay queued.
        """
        while self._heap:
            when, _, fn = self._heap[0]
            if until is not None and when > until:
                self._now = until
                return
            heapq.heappop(self._heap)
            self._now = when
            fn()
        if until is not None and until > self._now:
            self._now = until
