"""Fan-out event bus between the twin's engine thread and SSE subscribers.

One :class:`EventBus` per served run.  The engine thread publishes telemetry
events (metrics snapshots, SLO windows, trace tails, lifecycle markers); each
connected SSE client owns a bounded :class:`queue.Queue` it drains at its own
pace.  Publishing never blocks the simulation: when a subscriber's queue is
full the oldest event is dropped and counted, so a stalled client can at
worst lose its own history — never slow the engine or its siblings.

The bus also keeps the last ``max_queue`` events in a replay ring, so a
client that subscribes late (after a short run already finished) or
reconnects with the SSE ``Last-Event-ID`` can be handed what it missed: see
:meth:`EventBus.subscribe`.
"""

from __future__ import annotations

import collections
import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["BusEvent", "EventBus", "Subscription", "drain"]


@dataclass(frozen=True)
class BusEvent:
    """One published telemetry event.

    ``kind`` becomes the SSE ``event:`` field; ``data`` must be
    JSON-serialisable (it becomes the SSE ``data:`` payload); ``seq`` is a
    bus-wide monotonically increasing id (the SSE ``id:`` field), so clients
    can detect gaps introduced by overflow drops.
    """

    kind: str
    data: dict
    seq: int


@dataclass
class Subscription:
    """One subscriber's view of the bus."""

    sub_id: int
    events: "queue.Queue[BusEvent]"
    dropped: int = field(default=0)


class EventBus:
    """Bounded-queue publish/subscribe with drop-oldest overflow.

    ``max_queue`` bounds both each subscriber's queue and the replay ring of
    the most recent events.
    """

    def __init__(self, max_queue: int = 1024):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._subs: Dict[int, Subscription] = {}
        self._ids = itertools.count()
        self._seq = itertools.count()
        self._ring: "collections.deque[BusEvent]" = collections.deque(
            maxlen=max_queue)
        self.published = 0
        self.dropped = 0

    # ------------------------------------------------------------------ #
    def subscribe(self, since: Optional[int] = None) -> Subscription:
        """Register a new subscriber.

        Events published after this call flow into its queue.  With
        ``since=N`` the queue first receives every ring event with
        ``seq > N`` (``since=-1`` replays the whole ring).  The replay
        snapshot and the registration happen under the publish lock, so
        each event reaches the subscriber exactly once: either replayed or
        delivered live, never both and never neither — as long as it is
        still in the ring.
        """
        sub = Subscription(next(self._ids), queue.Queue(maxsize=self.max_queue))
        with self._lock:
            if since is not None:
                for event in self._ring:   # ring ≤ max_queue: never blocks
                    if event.seq > since:
                        sub.events.put_nowait(event)
            self._subs[sub.sub_id] = sub
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscriber; its queue stops receiving events."""
        with self._lock:
            self._subs.pop(sub.sub_id, None)

    @property
    def subscriber_count(self) -> int:
        """Number of currently attached subscribers."""
        with self._lock:
            return len(self._subs)

    # ------------------------------------------------------------------ #
    def publish(self, kind: str, data: dict) -> BusEvent:
        """Deliver one event to every subscriber without ever blocking.

        A full subscriber queue sheds its oldest event to make room (the
        drop is counted on both the subscription and the bus), so one slow
        SSE client cannot stall the engine thread.
        """
        with self._lock:
            event = BusEvent(kind=kind, data=data, seq=next(self._seq))
            self._ring.append(event)
            subs = list(self._subs.values())
        for sub in subs:
            while True:
                try:
                    sub.events.put_nowait(event)
                    break
                except queue.Full:
                    try:
                        sub.events.get_nowait()
                        sub.dropped += 1
                        self.dropped += 1
                    except queue.Empty:  # racing consumer made room
                        continue
        self.published += 1
        return event


def drain(sub: Subscription, timeout: Optional[float] = None,
          max_events: int = 64) -> List[Tuple[str, dict, int]]:
    """Pop up to ``max_events`` pending events as ``(kind, data, seq)`` rows.

    Blocks up to ``timeout`` seconds for the first event only; the rest are
    taken non-blocking.  Convenience for tests and the SSE writer loop.
    """
    out: List[Tuple[str, dict, int]] = []
    try:
        ev = sub.events.get(timeout=timeout)
    except queue.Empty:
        return out
    out.append((ev.kind, ev.data, ev.seq))
    while len(out) < max_events:
        try:
            ev = sub.events.get_nowait()
        except queue.Empty:
            break
        out.append((ev.kind, ev.data, ev.seq))
    return out
