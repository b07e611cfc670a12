"""The kernel's timed-event heap.

Everything that happens "later" in the simulation — scheduler ticks, device
arrivals posted by workload generators, deferred callbacks — is an entry in
this heap.  Entries at equal times fire in insertion order (the sequence
number breaks ties), which keeps runs deterministic.

CV timeouts and Pause() deadlines deliberately do *not* get their own heap
entries: PCR's timeout granularity is the scheduler tick, so the kernel
checks timed waiters at each tick instead (see Kernel._on_tick).  That is
the mechanism behind Section 6.3's observation that the 50 ms quantum
"clocks" timeout-driven behaviour.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: An event action receives the kernel as its only argument.
EventAction = Callable[[Any], None]


class EventHeap:
    """A deterministic time-ordered queue of kernel callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, EventAction]] = []
        self._seq = 0
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def push(self, when: int, action: EventAction) -> int:
        """Schedule ``action`` at absolute time ``when``; returns a token."""
        if when < 0:
            raise ValueError("event time must be >= 0")
        token = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (when, token, action))
        return token

    def cancel(self, token: int) -> None:
        """Cancel a scheduled event.

        Cancelling twice, or cancelling a token that already fired or was
        never issued, is harmless: only a pending token is recorded, so
        ``len()`` stays exact and ``next_time`` keeps its fast path.  The
        pending check scans the heap, which keeps ``push`` and
        ``pop_due`` free of any bookkeeping; the kernel never cancels.
        """
        if token not in self._cancelled and any(
            entry[1] == token for entry in self._heap
        ):
            self._cancelled.add(token)

    def next_time(self) -> int | None:
        """The time of the earliest pending event, or None if empty."""
        heap = self._heap
        if not self._cancelled:
            # Hot path: nothing cancelled, so the heap head is live.
            return heap[0][0] if heap else None
        self._drop_cancelled()
        if not heap:
            return None
        return heap[0][0]

    def pop_due(self, now: int) -> list[EventAction]:
        """Remove and return every action scheduled at or before ``now``.

        Returned in (time, insertion) order.
        """
        due: list[EventAction] = []
        while self._heap and self._heap[0][0] <= now:
            when, token, action = heapq.heappop(self._heap)
            if token in self._cancelled:
                self._cancelled.discard(token)
                continue
            due.append(action)
        return due

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][1] in self._cancelled:
            __, token, __action = heapq.heappop(self._heap)
            self._cancelled.discard(token)
