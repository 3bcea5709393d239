"""The traced run's ledger: spans, self times and exact counters in memory.

A :class:`Ledger` records one span per wrapped call (name, start, end,
parent, run id), folds each call's duration into its layer's *self time*
(duration minus the time its wrapped children took), and keeps exact work
counters.  :func:`install` puts class-level wrappers around the public (and
a few hot private) calls of every layer; it returns an ``uninstall``
callable that restores the originals.  Nothing here is imported, let alone
installed, by an untraced run.

Self times partition the timed phase: the harness opens a root span of
layer ``bench`` around it, so the sum over layers of self time equals the
root span's duration, and ``bench`` keeps whatever no wrapped call covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from contextlib import ExitStack
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

#: layers whose self time is reported, in report order
LAYERS = ("sim", "core", "thermal", "hardware", "workloads", "baselines",
          "runner", "service", "obs", "bench")

#: spans kept per run; later calls still count and time, without a span
MAX_SPANS = 250_000


class Ledger:
    """Spans, per-layer self time, per-name inclusive time and counters."""

    def __init__(self, run_id: str, max_spans: int = MAX_SPANS):
        self.run_id = run_id
        self.max_spans = max_spans
        self.spans: List[tuple] = []   # (id, name, start, end, parent, run id)
        self.self_s: Dict[str, float] = defaultdict(float)   # layer → s
        self.incl_s: Dict[str, float] = defaultdict(float)   # name → s
        self.calls: Dict[str, int] = defaultdict(int)        # name → calls
        self.counts: Dict[str, int] = defaultdict(int)       # counter → n
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.profilers: List[Any] = []  # one obs.Profiler per Engine built
        self._profile: Optional[Dict[str, Dict[str, float]]] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = perf_counter()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, layer: str, fn: Callable, args, kwargs,
             span: bool = True, sample: bool = False):
        """Run ``fn(*args, **kwargs)`` as one frame of ``layer``."""
        st = self._stack()
        parent = st[-1] if st else None
        parent_sid = parent[2] if parent is not None else 0
        sid = next(self._ids) if span and len(self.spans) < self.max_spans \
            else 0
        frame = [perf_counter(), 0.0, sid or parent_sid]
        st.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            st.pop()
            dur = end - frame[0]
            self.self_s[layer] += dur - frame[1]
            self.incl_s[name] += dur
            self.calls[name] += 1
            if parent is not None:
                parent[1] += dur
            if sample:
                self.samples[name].append(dur)
            if sid:
                self.spans.append((sid, name, frame[0] - self.origin,
                                   end - self.origin, parent_sid, self.run_id))

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a frame (the harness's own spans)."""
        return self.call(name, layer, fn, args, kwargs)

    # ------------------------------------------------------------------ #
    def profile_stats(self) -> Dict[str, Dict[str, float]]:
        """Engine-callback profile merged over every engine of the run."""
        if self._profile is not None:
            return self._profile
        from repro.obs import Profiler

        merged = Profiler()
        for p in self.profilers:
            merged.merge(p)
        return merged.stats()

    def to_dict(self) -> Dict[str, Any]:
        """Everything but the spans, JSON-ready (the twin launcher's dump)."""
        return {
            "run_id": self.run_id,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "profile": self.profile_stats(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Ledger":
        """Rebuild a span-less ledger from :meth:`to_dict` output."""
        ledger = cls(payload["run_id"])
        ledger.self_s.update(payload["self_s"])
        ledger.incl_s.update(payload["incl_s"])
        ledger.calls.update(payload["calls"])
        ledger.counts.update(payload["counts"])
        for name, values in payload["samples"].items():
            ledger.samples[name].extend(values)
        ledger._profile = payload["profile"]
        return ledger

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"id": sid, "name": name,
                                    "start_s": round(start, 9),
                                    "end_s": round(end, 9),
                                    "parent": parent, "run": run_id}) + "\n")


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _timed(ledger: Ledger, name: str, layer: str, fn: Callable,
           span: bool = True, sample: bool = False,
           after: Optional[Callable] = None) -> Callable:
    call = ledger.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if after is None:
            return call(name, layer, fn, args, kwargs, span, sample)
        before = after(args, None)
        out = call(name, layer, fn, args, kwargs, span, sample)
        after(args, before)
        return out

    return wrapper


def _counted(ledger: Ledger, counter: str, fn: Callable) -> Callable:
    counts = ledger.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(ledger: Ledger) -> Callable[[], None]:
    """Wrap every layer's calls for ``ledger``; returns the uninstaller."""
    from repro.baselines.cloud_only import CloudOnlyBaseline
    from repro.baselines.desktop_grid import DesktopGridBaseline
    from repro.baselines.micro_dc import MicroDatacenterBaseline
    from repro.core.gateway import EdgeGateway
    from repro.core.middleware import DF3Middleware
    from repro.core.regulation import FleetRegulatorBank
    from repro.core.scheduling.base import BaseScheduler
    from repro.core.smartgrid import SmartGridManager
    from repro.hardware.server import ComputeServer
    from repro.obs import Profiler
    from repro.obs.slo import SLOEngine
    from repro.runner.backend import InlineBackend
    from repro.runner.cache import ResultCache
    from repro.runner.graph import TaskNode
    from repro.runner.runner import SweepRunner
    from repro.sim.engine import Engine
    from repro.thermal.comfort import ComfortTracker
    from repro.thermal.fused import FusedCityThermal
    from repro.workloads.cloud import CloudJobGenerator
    from repro.workloads.edge import EdgeWorkloadGenerator
    from repro.workloads.heating import HeatingRequestGenerator

    patches = ExitStack()
    counts = ledger.counts

    def patch(owner, attr, value):
        patches.enter_context(mock.patch.object(owner, attr, value))

    def wrap(cls, attr, name, layer, **kw):
        patch(cls, attr, _timed(ledger, name, layer, cls.__dict__[attr], **kw))

    # sim: every engine gets a profiler; run_until is the sim layer's span
    engine_init = Engine.__dict__["__init__"]

    def init_engine(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        if self.profiler is None:
            self.profiler = Profiler()
            ledger.profilers.append(self.profiler)

    patch(Engine, "__init__", functools.wraps(engine_init)(init_engine))

    def events_delta(args, before):
        n = args[0].events_executed
        if before is not None:
            counts["sim.events"] += n - before
        return n

    wrap(Engine, "run_until", "sim.run_until", "sim", span=False,
         after=events_delta)
    wrap(Engine, "step_until", "sim.step_until", "sim", span=False,
         after=events_delta)
    patch(Engine, "schedule_at",
          _counted(ledger, "sim.scheduled", Engine.__dict__["schedule_at"]))

    # core: construction, the three df3-tick stages, the request path
    wrap(DF3Middleware, "__init__", "core.mw.init", "core")
    wrap(DF3Middleware, "inject", "core.mw.inject", "core", span=False)

    def scan_evals(args, before):
        n = sum(s.scan_key_evals for s in args[0].schedulers.values())
        if before is not None:
            counts["core.scheduling.scan_key_evals"] += n - before
        return n

    wrap(DF3Middleware, "run_until", "core.mw.run_until", "core",
         sample=True, after=scan_evals)
    wrap(DF3Middleware, "_tick_regulation", "core.df3_tick.regulation",
         "core", span=False)
    wrap(DF3Middleware, "_tick_workload", "core.df3_tick.workload", "core",
         span=False)
    wrap(DF3Middleware, "_tick_thermal", "core.df3_tick.thermal", "core",
         span=False)
    wrap(FleetRegulatorBank, "update_all", "core.regulation.update_all",
         "core", span=False)
    wrap(SmartGridManager, "tick", "core.smartgrid.tick", "core", span=False)
    wrap(EdgeGateway, "submit", "core.gateway.submit", "core", span=False)
    wrap(EdgeGateway, "resubmit", "core.gateway.resubmit", "core", span=False)
    wrap(BaseScheduler, "submit_edge", "core.scheduling.submit_edge", "core",
         span=False)

    # thermal
    wrap(FusedCityThermal, "step", "thermal.fused_step", "thermal",
         span=False)
    wrap(ComfortTracker, "add_rows", "thermal.comfort", "thermal", span=False)
    wrap(ComfortTracker, "add", "thermal.comfort", "thermal", span=False)

    # hardware: sync/submit/completion timed, free_cores reads counted
    wrap(ComputeServer, "sync", "hardware.server.sync", "hardware",
         span=False)
    wrap(ComputeServer, "_on_completion_event", "hardware.server.completion",
         "hardware", span=False)
    for attr in ("submit", "submit_batch"):
        fn = ComputeServer.__dict__[attr]

        def placed(self, tasks, _fn=fn):
            # submit returns a bool, submit_batch the number accepted
            n = ledger.call("hardware.server.submit", "hardware", _fn,
                            (self, tasks), {}, False)
            counts["hardware.server.placements"] += int(n)
            return n

        patch(ComputeServer, attr, functools.wraps(fn)(placed))
    # 35 M reads in baseline-worlds: a bare list cell, folded into the
    # counts on uninstall, keeps the counting cost to ~0.1 µs a read
    reads = [0]

    def free_cores(self, _get=ComputeServer.__dict__["free_cores"].fget):
        reads[0] += 1
        return _get(self)

    patch(ComputeServer, "free_cores", property(free_cores))

    # workloads: generation time and requests produced
    def gen(cls, attr, counted=True):
        fn = cls.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = ledger.call("workloads.generate", "workloads", fn, args,
                              kwargs, False)
            if counted:
                counts["workloads.requests"] += len(out)
            return out

        patch(cls, attr, wrapper)

    gen(EdgeWorkloadGenerator, "generate")
    gen(EdgeWorkloadGenerator, "plan", counted=False)
    gen(EdgeWorkloadGenerator, "materialize")
    gen(CloudJobGenerator, "generate")
    gen(HeatingRequestGenerator, "generate")

    # baselines: one span per world run, plus the events its engine ran
    def world_events(args, before):
        n = args[0].engine.events_executed
        if before is not None:
            counts["baselines.events"] += n - before
        return n

    for cls, key in ((CloudOnlyBaseline, "cloud_only"),
                     (MicroDatacenterBaseline, "micro_dc"),
                     (DesktopGridBaseline, "desktop_grid")):
        wrap(cls, "__init__", f"baselines.{key}.init", "baselines")
        wrap(cls, "run_until", f"baselines.{key}.run", "baselines",
             after=world_events)
    # the desktop grid's queue rescan runs inside server completion
    # callbacks; its own frame keeps that time in the baselines layer
    wrap(DesktopGridBaseline, "_drain", "baselines.desktop_grid.drain",
         "baselines", span=False)

    # runner: the sweep, each node, the cache
    wrap(SweepRunner, "run_experiment", "runner.run_experiment", "runner")
    wrap(InlineBackend, "execute", "runner.backend.execute", "runner")
    node_exec = TaskNode.__dict__["execute"]

    def execute_node(self, *args, **kwargs):
        name = f"runner.node.{self.kind}"
        return ledger.call(name, "runner", node_exec, (self,) + args, kwargs,
                           True, True)

    patch(TaskNode, "execute", functools.wraps(node_exec)(execute_node))
    for attr in ("get", "put"):
        wrap(ResultCache, attr, f"runner.cache.{attr}", "runner", span=False)

    # obs: the SLO scan each twin telemetry publish runs
    wrap(SLOEngine, "evaluate", "obs.slo_evaluate", "obs")

    _install_service(ledger, patch)

    def uninstall() -> None:
        patches.close()
        counts["hardware.server.free_cores.reads"] += reads[0]
        reads[0] = 0

    return uninstall


def _install_service(ledger: Ledger, patch: Callable) -> None:
    """Twin wrappers: telemetry, state views, command waits."""
    from repro.service.twin import DigitalTwin

    def wrap(attr, name, **kw):
        patch(DigitalTwin, attr,
              _timed(ledger, name, "service", DigitalTwin.__dict__[attr], **kw))

    wrap("_publish_telemetry", "service.publish_telemetry", span=False)
    wrap("_apply_due_commands", "service.apply_commands", span=False)
    wrap("state_dict", "service.state_dict", span=False, sample=True)
    submit = DigitalTwin.__dict__["submit"]

    def submit_timed(self, label, fn, at=None, wait=None):
        # a command wait is time spent blocked, not work: sampled outside
        # the frame stack so it never counts as any layer's self time
        t0 = perf_counter()
        try:
            return submit(self, label, fn, at=at, wait=wait)
        finally:
            if wait is not None:
                ledger.samples["service.command_wait"].append(
                    perf_counter() - t0)

    patch(DigitalTwin, "submit", functools.wraps(submit)(submit_timed))
