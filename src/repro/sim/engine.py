"""Discrete-event simulation engine.

A deliberately small, deterministic kernel: events are ``(time, priority, seq)``
ordered in a binary heap, where ``seq`` is a monotonically increasing insertion
counter that guarantees a *stable* order for simultaneous events.  Determinism
of the event order — together with the named RNG streams of
:mod:`repro.sim.rng` — is what makes every experiment in this repository
bit-reproducible.

The engine supports two styles of activity:

* **one-shot callbacks** scheduled with :meth:`Engine.schedule` /
  :meth:`Engine.schedule_at`;
* **periodic processes** (:class:`Process`) registered with
  :meth:`Engine.add_process`, used by continuous subsystems (thermal
  integration, controllers, metric sampling) that advance on a fixed tick.

Periodic processes receive the elapsed ``dt`` so integrators do not need to
track time themselves.

Processes that share a period (and offset) may be **fused** into one batched
dispatch by registering them with the same ``group=`` name: the engine then
pops a single heap event per tick and invokes every member callback in
registration order, instead of popping one event per process.  Fusion is an
engine-level optimisation with a strict ordering contract — member callbacks
run in exactly the order an unfused registration would have run them (see
``tests/test_sim_engine_properties.py``) — and a fused tick counts as one
executed event, because it *is* one event.

One low-level hook supports *batched* operations layered above the engine
(see DESIGN.md §2.13): :meth:`Engine.reserve_seq` advances the insertion
counter without scheduling, so a batch can consume exactly the sequence
numbers the same operations done one at a time would have consumed — the
live events' ``(time, priority, seq)`` triples, and therefore the dispatch
order, do not depend on batching.

The engine optionally carries a tracer and a profiler (see :mod:`repro.obs`):
with either attached, every dispatched callback is attributed to a label (the
``label=`` given at scheduling time, or the callback's ``__qualname__``) —
the profiler accumulates wall-clock per label, the tracer records the
dispatch at simulated time.  With both detached (the default) the dispatch
loop is exactly the uninstrumented fast path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional

__all__ = ["Engine", "Event", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``.  Lower ``priority`` runs first
    among simultaneous events; ``seq`` breaks remaining ties by insertion
    order.  ``cancelled`` events stay in the heap but are skipped when popped
    (lazy deletion), which keeps cancellation O(1).
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: Optional[str] = field(default=None, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True


class Process:
    """A periodic activity driven by the engine.

    ``fn(now, dt)`` is invoked every ``period`` simulated seconds.  The first
    invocation happens at ``start + period`` (a process observes the interval
    that just elapsed, it does not fire at registration time).
    """

    __slots__ = ("name", "period", "fn", "_last", "active")

    def __init__(self, name: str, period: float, fn: Callable[[float, float], None]):
        if period <= 0:
            raise SimulationError(f"process {name!r}: period must be > 0, got {period}")
        self.name = name
        self.period = float(period)
        self.fn = fn
        self._last: Optional[float] = None
        self.active = True

    def stop(self) -> None:
        """Deactivate the process; it will not be rescheduled."""
        self.active = False


class _ProcessGroup:
    """Same-period processes fused into one batched dispatch (see module doc)."""

    __slots__ = ("name", "members")

    def __init__(self, name: str):
        self.name = name
        self.members: List[Process] = []


class Engine:
    """The simulation event loop.

    Parameters
    ----------
    start:
        Simulation epoch in seconds (default 0.0 = Jan 1, 00:00 in
        :class:`repro.sim.calendar.SimCalendar` terms).
    tracer:
        Optional :class:`repro.obs.Tracer`; when set, each dispatched
        callback emits an ``engine.dispatch`` record.
    profiler:
        Optional :class:`repro.obs.Profiler`; when set, each dispatched
        callback's wall-clock time is attributed to its label.

    Notes
    -----
    The engine never advances past the horizon given to :meth:`run_until`;
    events scheduled beyond it remain queued and will run if the horizon is
    extended by a later call.
    """

    def __init__(self, start: float = 0.0, tracer=None, profiler=None):
        self.now: float = float(start)
        # heap entries are (time, priority, seq, Event): the hot-loop
        # comparisons then run on plain tuples in C instead of dispatching
        # Event.__lt__ per sift — seq is unique, so the Event never compares
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []
        self._groups: dict = {}  # (group, period, offset) → _ProcessGroup
        self._events_executed = 0
        self.tracer = tracer
        self.profiler = profiler

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], None], priority: int = 0,
                 label: Optional[str] = None) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, callback, priority, label)

    def schedule_at(self, time: float, callback: Callable[[], None], priority: int = 0,
                    label: Optional[str] = None) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``label`` names the event for profiling/tracing attribution; unnamed
        events fall back to the callback's ``__qualname__``.
        """
        if not time >= self.now:  # one comparison: NaN fails it too
            if time != time:
                raise SimulationError("cannot schedule event at NaN time")
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self.now}"
            )
        # direct slot stores: same object state as Event(...), minus the
        # dataclass argument plumbing on the hottest allocation in the engine
        ev = Event.__new__(Event)
        ev.time = t = float(time)
        ev.priority = priority
        ev.seq = seq = next(self._seq)
        ev.callback = callback
        ev.cancelled = False
        ev.label = label
        heappush(self._heap, (t, priority, seq, ev))
        return ev

    def reserve_seq(self, n: int = 1) -> None:
        """Advance the insertion counter by ``n`` without scheduling anything.

        Batched operations (e.g. :meth:`repro.hardware.server.ComputeServer.
        submit_batch`) call this to consume exactly the sequence numbers the
        one-at-a-time calls would have consumed on intermediate, immediately
        cancelled events.  The surviving event then carries the same
        ``(time, priority, seq)`` triple either way, so batching never
        reorders simultaneous events.
        """
        if n < 0:
            raise SimulationError(f"cannot reserve {n} sequence numbers")
        for _ in range(n):
            next(self._seq)

    def add_process(self, name: str, period: float, fn: Callable[[float, float], None],
                    offset: float = 0.0, group: Optional[str] = None) -> Process:
        """Register a periodic process; see :class:`Process`.

        ``offset`` shifts the process phase: the first invocation happens at
        ``now + offset + period`` and subsequent ones every ``period``.  Use
        distinct offsets to keep independent periodic activities (thermal
        tick, per-district checkpointers, ...) from piling onto the same
        event timestamps.

        ``group`` fuses same-cadence processes: all processes registered with
        the same ``(group, period, offset)`` share **one** heap event per
        tick, and their callbacks run back-to-back in registration order when
        it fires.  A fused tick is one dispatched event (one sequence number,
        one ``events_executed`` increment) regardless of the member count.
        Members registered after the group's first tick join the shared
        cadence: their first ``dt`` is the time since their registration.
        """
        if offset < 0:
            raise SimulationError(f"process {name!r}: offset must be >= 0, got {offset}")
        proc = Process(name, period, fn)
        proc._last = self.now
        self._processes.append(proc)
        if group is None:
            self._schedule_process(proc, extra_delay=offset)
            return proc
        key = (group, proc.period, float(offset))
        grp = self._groups.get(key)
        if grp is None:
            grp = _ProcessGroup(group)
            self._groups[key] = grp
            self._schedule_group(key, grp, proc.period, extra_delay=offset)
        grp.members.append(proc)
        return proc

    def _schedule_process(self, proc: Process, extra_delay: float = 0.0) -> None:
        def tick() -> None:
            if not proc.active:
                return
            dt = self.now - proc._last
            proc._last = self.now
            proc.fn(self.now, dt)
            if proc.active:
                self._schedule_process(proc)

        self.schedule(proc.period + extra_delay, tick, priority=10,
                      label=f"process:{proc.name}")

    def _schedule_group(self, key, grp: _ProcessGroup, period: float,
                        extra_delay: float = 0.0) -> None:
        def tick() -> None:
            # the active check sits inside the loop on purpose: a member may
            # stop a later member mid-tick, exactly as an unfused dispatch
            # would observe (the later event pops, sees inactive, skips)
            for proc in grp.members:
                if not proc.active:
                    continue
                dt = self.now - proc._last
                proc._last = self.now
                proc.fn(self.now, dt)
            if any(p.active for p in grp.members):
                self._schedule_group(key, grp, period)
            else:
                # let a later add_process with the same key start fresh
                self._groups.pop(key, None)

        self.schedule(period + extra_delay, tick, priority=10,
                      label=f"process:{grp.name}")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_until(self, horizon: float) -> None:
        """Execute all events with ``time <= horizon``, then set now=horizon."""
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is before now={self.now}")
        instrumented = self.tracer is not None or self.profiler is not None
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            ev = heappop(heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if instrumented:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
        self.now = float(horizon)

    def step_until(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Execute events with ``time <= horizon``, up to ``max_events`` of them.

        The pausable form of :meth:`run_until`: it returns the number of
        callbacks executed, and only advances ``now`` to ``horizon`` once
        every due event has run — when the event budget is exhausted first,
        ``now`` stays at the last executed event's time so a later call (or
        a plain :meth:`run_until`) resumes exactly where this one stopped.

        Determinism contract (DESIGN.md §2.15): any sequence of
        ``step_until`` calls that reaches ``horizon`` executes the same
        events, in the same order, with the same ``now`` at each dispatch,
        as one ``run_until(horizon)`` — pausing is unobservable to the model.
        """
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is before now={self.now}")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        instrumented = self.tracer is not None or self.profiler is not None
        executed = 0
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            if max_events is not None and executed >= max_events:
                return executed
            ev = heappop(heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if instrumented:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
            executed += 1
        self.now = float(horizon)
        return executed

    def iter_run(self, horizon: float, max_events: int = 1000):
        """Generator-style ticking: drive to ``horizon`` in bounded batches.

        Yields ``(now, executed)`` after each batch of at most ``max_events``
        dispatched callbacks; the consumer may pause arbitrarily long between
        ``next()`` calls (or interleave reads of engine state) and the run
        stays byte-identical to one :meth:`run_until` call — this is the
        engine/IO split the service layer is built on.
        """
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        while True:
            executed = self.step_until(horizon, max_events=max_events)
            yield self.now, executed
            if executed < max_events:
                return

    def step(self) -> bool:
        """Execute the single next event.  Returns False if the queue is empty."""
        while self._heap:
            ev = heappop(self._heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if self.tracer is not None or self.profiler is not None:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
            return True
        return False

    def _dispatch_instrumented(self, ev: Event) -> None:
        """Run one callback under profiling and/or tracing attribution."""
        label = ev.label or getattr(ev.callback, "__qualname__", "callback")
        t0 = perf_counter()
        ev.callback()
        elapsed = perf_counter() - t0
        if self.profiler is not None:
            self.profiler.record(label, elapsed)
        if self.tracer is not None:
            self.tracer.emit("engine", "engine.dispatch", self.now,
                             label=label, priority=ev.priority)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_executed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None
