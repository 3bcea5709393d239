"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.middleware import DF3Middleware, MiddlewareConfig
from repro.sim.calendar import DAY, SimCalendar

__all__ = ["ExperimentResult", "mid_month_start", "small_city"]

# Deliberately no module-level singletons here: experiment cells execute in
# pool worker processes (repro.runner), and any instance constructed at
# import time would be re-created per worker with whatever state it had —
# an invisible fork hazard.  SimCalendar is a stateless frozen dataclass,
# so constructing one per call is free and keeps this module fork-safe;
# tests/test_runner_worker.py enforces the no-mutable-module-state rule.


@dataclass
class ExperimentResult:
    """Rendered output + raw data of one experiment.

    ``text`` is the table/series exactly as printed by the benchmark (and as
    recorded in EXPERIMENTS.md); ``data`` carries the numbers the benchmark
    asserts shape expectations on.
    """

    experiment_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.experiment_id}] {self.title}\n{self.text}"


def mid_month_start(month: int, year_offset: int = 0) -> float:
    """Simulated time of the 10th of a month — a representative window."""
    return SimCalendar().month_start(month) + 9 * DAY + year_offset * 365 * DAY


def small_city(obs=None, **overrides) -> DF3Middleware:
    """The canonical experiment city: small enough for benchmarks, complete.

    2 districts × 2 buildings × 3 rooms = 12 Q.rads (192 cores), one 8-node
    datacenter.  Override any :class:`MiddlewareConfig` field via kwargs.

    ``obs`` optionally instruments the city with a specific
    :class:`repro.obs.Observability` bundle; by default the middleware picks
    up the process-wide current one, so any experiment run under
    ``repro.obs.obs_session(...)`` (which is what ``python -m repro run
    --trace/--profile/--metrics-out`` does) is fully instrumented without
    changes to its code.
    """
    defaults: Dict[str, Any] = dict(
        n_districts=2,
        buildings_per_district=2,
        rooms_per_building=3,
        dc_nodes=8,
        seed=7,
        thermal_tick_s=600.0,
        filler_chunk_s=1200.0,
    )
    defaults.update(overrides)
    return DF3Middleware(MiddlewareConfig(**defaults), obs=obs)
