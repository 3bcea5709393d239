"""Queue disciplines: FCFS for the cloud flow, EDF for the edge flow.

The cloud flow is throughput work — first-come-first-served is the fair
baseline (and what BOINC-class middleware does).  The edge flow is deadline
work — earliest-deadline-first is the canonical discipline for it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, List, Optional, TypeVar

from repro.core.requests import EdgeRequest

__all__ = ["FCFSQueue", "EDFQueue"]

T = TypeVar("T")


class FCFSQueue(Generic[T]):
    """A plain FIFO with an urgent-front slot for preempted work.

    Preempted cloud tasks re-enter at the *front* (they already waited their
    turn once) — ``push_front`` — while fresh arrivals append.
    """

    def __init__(self) -> None:
        self._items: List[T] = []

    def push(self, item: T) -> None:
        """Append a fresh arrival."""
        self._items.append(item)

    def push_front(self, item: T) -> None:
        """Re-insert preempted work at the head."""
        self._items.insert(0, item)

    def pop(self) -> T:
        """Remove and return the head; raises IndexError when empty."""
        return self._items.pop(0)

    def peek(self) -> Optional[T]:
        """Head without removal, or None."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class EDFQueue:
    """Earliest-absolute-deadline-first priority queue of edge requests."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()

    def push(self, req: EdgeRequest) -> None:
        """Insert by absolute deadline (arrival time + relative deadline)."""
        heapq.heappush(self._heap, (req.time + req.deadline_s, next(self._seq), req))

    def pop(self) -> EdgeRequest:
        """Remove and return the most urgent request."""
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Optional[EdgeRequest]:
        """Most urgent request without removal, or None."""
        return self._heap[0][2] if self._heap else None

    def pop_expired(self, now: float) -> List[EdgeRequest]:
        """Remove every request whose absolute deadline already passed."""
        out: List[EdgeRequest] = []
        while self._heap and self._heap[0][0] < now:
            out.append(heapq.heappop(self._heap)[2])
        return out

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
