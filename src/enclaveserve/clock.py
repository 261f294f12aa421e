"""Clocks and the event loop that both clocks schedule on.

Every timed action of a run is an event on one heap, ordered by (time,
insertion sequence). `EventLoop` is the virtual clock: it jumps from one
event to the next without waiting, so runs are single-threaded and a fixed
schedule replays identically. `RealClock` is the same loop on the monotonic
wall clock: it sleeps until each event is due.

Code that waits inside an event waits through the clock's `sleep`, which
the event loop returns from at once: no virtual time passes in an event.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable


class Clock:
    """Time source."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


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

    def sleep(self, seconds: float) -> None:
        """Return at once: time moves only between events."""

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        if when < self._now:
            raise ValueError(f"cannot schedule event in the past: {when} < {self._now}")
        heapq.heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now() + delay, fn)

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


class RealClock(EventLoop):
    """The event loop on the monotonic wall clock, zeroed at construction.

    `run()` sleeps until each event is due: an event whose time has already
    passed runs at once, and no event runs before its time. Events run on
    the thread that calls `run()`, one at a time.
    """

    def __init__(self) -> None:
        super().__init__()
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def run(self) -> None:
        """Fire every queued event at its time, then return."""
        while self._heap:
            when, _, fn = self._heap[0]
            delay = when - self.now()
            if delay > 0:
                self.sleep(delay)
                continue
            heapq.heappop(self._heap)
            fn()
