"""The three in-process workloads: heating-season, churn-sweep, baseline-worlds.

Each workload splits into ``setup`` (construction and input generation),
``timed`` (the phase reported as ``wall_s``) and ``verify`` (output checks,
returning the simulated fingerprint).  The benchmark's seed is the only
input; the program sees only what the public generators make from it.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from time import monotonic
from typing import Any, Dict, List, Tuple

from common import (
    Outcome,
    digest,
    fmt_counts,
    median,
    outcome_failures,
    request_outcomes,
)

#: where runs keep temporary state (cache dirs, span files), under the checkout
WORK_DIR = ".perfbench"

#: tests/golden fixtures and the default seeds that reproduce them
GOLDEN = {"churn-sweep": ("tests/golden/A6.txt", 101),
          "baseline-worlds": ("tests/golden/E9.txt", 41)}


def check_golden(workload: str, seed: int, rendered: str, out: Outcome) -> None:
    """At the experiment's default seed, compare with its golden fixture."""
    path, default_seed = GOLDEN[workload]
    if seed != default_seed:
        out.note(f"golden: not compared (seed {seed} != default {default_seed})")
        return
    with open(path, encoding="utf-8") as f:
        same = f.read() == rendered + "\n"
    out.check(same, f"output differs from {path}")
    out.note(f"golden: {path} {'identical' if same else 'DIFFERS'}")


class Workload:
    """Defaults shared by the in-process workloads."""

    name = ""
    repeat = False         # passes repeat until --seconds is used up
    setup_reps = 1         # set-ups measured per run, for setup_s's median
    ledger = None          # the traced run's Ledger, else None

    def after_pass(self, state, result, deadline: float, out: Outcome) -> None:
        """Work a pass does after its timed phase (churn's warm passes)."""

    def discard(self, state) -> None:
        """Free what a pass left behind (cache directories)."""

    def extras(self, state, result, out: Outcome) -> Dict[str, Any]:
        """Per-layer numbers of a traced pass that the workload reads from
        the program itself."""
        return {}

    def units(self, interval, result) -> List[Tuple[float, float]]:
        """The timed units of one pass: ``wall_s`` sums, over units, each
        unit's median over the run's passes."""
        return [interval]


# ---------------------------------------------------------------------- #
class HeatingSeason(Workload):
    """Fig. 4's Nov→May windows on a 16-district (96 Q.rad) city.

    One pass builds the seven monthly cities (heating requests plus filler,
    vector kernel, no edge or cloud flow) and runs each for half a
    simulated day.  The fused ``df3-tick`` does most of the work.
    """

    name = "heating-season"
    repeat = True
    setup_reps = 20
    n_districts = 16
    window_days = 0.5

    def setup(self, seed: int):
        from repro.experiments.common import mid_month_start, small_city
        from repro.sim.calendar import DAY, HEATING_SEASON_MONTHS
        from repro.sim.rng import RngRegistry
        from repro.workloads.heating import (
            HeatingBehavior,
            HeatingRequestGenerator,
        )

        rngs = RngRegistry(seed)
        windows = []
        for month in HEATING_SEASON_MONTHS:
            t0 = mid_month_start(month)
            mw = small_city(seed=seed, start_time=t0,
                            n_districts=self.n_districts,
                            buildings_per_district=2, rooms_per_building=3,
                            enable_filler=True)
            requests = []
            for bname, building in mw.buildings.items():
                gen = HeatingRequestGenerator(
                    rngs.stream(f"heating-{month}-{bname}"),
                    rooms=[r.name for r in building.rooms],
                    behavior=HeatingBehavior.INCENTIVIZED)
                requests.extend(gen.generate(t0, t0 + self.window_days * DAY))
            mw.inject(requests)
            windows.append((month, mw, requests, t0 + self.window_days * DAY))
        return windows

    def timed(self, windows):
        intervals = []
        for _, mw, _, t_end in windows:
            t0 = monotonic()
            mw.run_until(t_end)
            intervals.append((t0, monotonic()))
        return intervals

    def units(self, interval, result):
        """One unit per window: a slow spell then costs one window's
        sample, not the whole pass."""
        return result

    def verify(self, windows, result, out: Outcome) -> str:
        rows = []
        for month, mw, requests, t_end in windows:
            comfort = mw.comfort.result()
            ok = (mw.engine.now == t_end and mw.engine.events_executed > 0
                  and all(r.time < t_end for r in requests)
                  and 0.0 <= comfort.time_in_band <= 1.0
                  and not mw.completed_edge() and not mw.completed_cloud())
            out.op(ok, f"window {month}: run did not reach its horizon cleanly")
            rows.append((month, mw.engine.events_executed, len(requests),
                         mw.filler_completed, repr(mw.fleet_energy_j()),
                         repr(mw.total_cycles_executed()),
                         repr(comfort.time_in_band), repr(comfort.rmse_c)))
        return digest(repr(rows))


# ---------------------------------------------------------------------- #
class ChurnSweep(Workload):
    """A6's grid (21 cells + the shared plan prefix) via ``SweepRunner``.

    The timed phase is the cold pass into an empty cache directory; warm
    passes then rerun the sweep from that cache.
    """

    name = "churn-sweep"
    setup_reps = 5
    min_warm = 20

    def __init__(self) -> None:
        self._dirs = 0
        self.warm_times: List[float] = []   # host s of the last warm passes

    def setup(self, seed: int):
        from repro.experiments import a6_churn
        from repro.runner.cache import ResultCache
        from repro.runner.graph import graph_of
        from repro.runner.runner import SweepRunner

        self._dirs += 1
        cache_dir = os.path.join(WORK_DIR, f"cache-{os.getpid()}-{self._dirs}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(cache_dir)
        runner = SweepRunner(jobs=1, cache=cache, backend="dag")
        graph = graph_of(a6_churn.SWEEP, seed=seed)
        for prefix in graph.prefixes():
            # workload generation, timed here; the cold pass's own prefix
            # node generates the same plan again inside wall_s.  Called
            # through resolve(), not execute(), so a traced run's runner
            # metrics see only the cold pass's nodes.
            prefix.resolve()(**dict(prefix.params))
        return {"seed": seed, "cache": cache, "dir": cache_dir,
                "runner": runner, "graph_nodes": len(graph),
                "cell_ids": [n.node_id for n in graph.points()],
                "cells": []}

    def _run(self, state):
        from repro.experiments import a6_churn

        return state["runner"].run_experiment(a6_churn.run, seed=state["seed"])

    def timed(self, state):
        from repro.experiments import a6_churn

        # the audit needs each cell's request objects, which only the
        # cell's own reduce step sees; a6_churn looks it up as a global.
        # Plain assignment, not unittest.mock: importing mock (and asyncio
        # with it) raises this workload's peak RSS by ~20 MiB, because the
        # extra long-lived objects defer the collector's full passes.
        finish = a6_churn._finish_cell

        def finish_audited(mw, edge, cloud):
            row = finish(mw, edge, cloud)
            if self.ledger is None:
                audit = _cell_audit(mw, edge, cloud)
            else:
                audit = self.ledger.span("bench.audit", "bench",
                                         _cell_audit, mw, edge, cloud)
            state["cells"].append(audit)
            return row

        a6_churn._finish_cell = finish_audited
        try:
            return self._run(state)
        finally:
            a6_churn._finish_cell = finish

    def warm(self, state):
        """One warm pass from the cold pass's cache."""
        from repro.runner.runner import SweepRunner

        state["runner"] = SweepRunner(jobs=1, cache=state["cache"],
                                      backend="dag")
        return self._run(state)

    def after_pass(self, state, cold, deadline: float, out: Outcome) -> None:
        """Warm passes until ``deadline``, at least ``min_warm`` of them."""
        self.warm_times = []
        while len(self.warm_times) < self.min_warm or monotonic() < deadline:
            t0 = monotonic()
            report = self.warm(state)
            self.warm_times.append(monotonic() - t0)
            self.verify_warm(state, cold, report, out)
        out.note(f"warm_rerun_s: {median(self.warm_times):.6f} host s "
                 f"(median of {len(self.warm_times)})")

    def verify(self, state, cold, out: Outcome) -> str:
        out.check(cold.computed_nodes == state["graph_nodes"]
                  and cold.cached_nodes == 0,
                  f"cold pass computed {cold.computed_nodes} of "
                  f"{state['graph_nodes']} nodes")
        outcomes: Counter = Counter()
        # jobs=1 runs the cells in points order
        for cell, audit in zip(state["cell_ids"], state["cells"]):
            outcomes.update(audit["outcomes"])
            bad = outcome_failures(audit["outcomes"])
            out.op(bad == 0 and audit["duplicates"] == 0,
                   f"cell {cell}: {bad} requests lost or in a state that "
                   f"contradicts their record, {audit['duplicates']} "
                   "listed twice")
        out.check(len(state["cells"]) == cold.points,
                  f"{len(state['cells'])} cells audited, {cold.points} run")
        out.note(f"request outcomes: {fmt_counts(outcomes)}")
        check_golden(self.name, state["seed"], str(cold.result), out)
        return cold.result_digest

    def verify_warm(self, state, cold, warm, out: Outcome) -> None:
        same = (warm.result_digest == cold.result_digest
                and warm.computed_nodes == 0
                and warm.cached_nodes == cold.points)
        out.op(same, "warm pass differs from the cold pass")
        out.check(same, "warm pass differs from the cold pass")

    def discard(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    def extras(self, state, cold, out: Outcome) -> Dict[str, Any]:
        """Node counts, resilience logs, and one traced warm pass for the
        cache counters; ``runner.warm_rerun_s`` comes from the untraced
        warm passes."""
        warm = self.ledger.span("bench.warm", "bench", self.warm, state)
        self.verify_warm(state, cold, warm, out)
        cells = state["cells"]
        executed = sum(c["executed_cycles"] for c in cells)
        wasted = sum(c["wasted_cycles"] for c in cells)
        return {
            "runner.cache.hits": state["cache"].stats.hits,
            "runner.cache.misses": state["cache"].stats.misses,
            "runner.warm_rerun_s": median(self.warm_times),
            "runner.nodes": cold.nodes,
            "runner.computed_nodes": cold.computed_nodes,
            "runner.cached_nodes": cold.cached_nodes,
            "core.resilience.server_failures":
                sum(c["server_failures"] for c in cells),
            "core.resilience.clones": sum(c["clones"] for c in cells),
            "core.resilience.useful_cycle_ratio":
                (executed - wasted) / executed if executed > 0 else 0.0,
        }


def _cell_audit(mw, edge, cloud) -> Dict[str, Any]:
    """Lifecycle audit of one A6 cell's requests (read-only)."""
    done = [r.request_id for r in mw.completed_edge()]
    expired = [r.request_id for r in mw.expired_edge()]
    listed = done + expired
    log = mw.resilience.log
    return {
        "outcomes": request_outcomes(list(edge) + list(cloud)),
        "duplicates": len(listed) - len(set(listed)),
        "server_failures": log.server_failures,
        "clones": log.clones_spawned,
        "wasted_cycles": log.wasted_cycles,
        "executed_cycles": sum(s.cycles_executed for s in mw.all_servers),
    }


# ---------------------------------------------------------------------- #
class BaselineWorlds(Workload):
    """E9: one winter day on df3, cloud-only, micro-dc and desktop-grid."""

    name = "baseline-worlds"
    setup_reps = 5

    def setup(self, seed: int):
        """What E9 builds before its worlds run: streams and four worlds."""
        from repro.baselines.cloud_only import CloudOnlyBaseline
        from repro.baselines.desktop_grid import DesktopGridBaseline
        from repro.baselines.micro_dc import MicroDatacenterBaseline
        from repro.core.scheduling.base import SaturationPolicy
        from repro.experiments import e9_baselines
        from repro.experiments.common import mid_month_start, small_city
        from repro.sim.calendar import DAY

        t0 = mid_month_start(1)
        # E9's own stream generator, so set-up times the work E9 does
        edge, cloud = e9_baselines._streams(seed, t0, t0 + DAY)
        # built only to be timed: e9_baselines.run builds its own; these
        # are the constructor calls of e9_baselines.run
        small_city(seed=seed, start_time=t0,
                   saturation_policy=SaturationPolicy.PREEMPT)
        CloudOnlyBaseline(n_rooms=12, dc_nodes=8, seed=seed, start_time=t0)
        MicroDatacenterBaseline(n_districts=2, nodes_per_micro_dc=2,
                                n_rooms=12, seed=seed, start_time=t0)
        DesktopGridBaseline(n_desktops=12, seed=seed, start_time=t0)
        return {"seed": seed, "requests": len(edge) + len(cloud), "streams": []}

    def timed(self, state):
        from repro.experiments import e9_baselines

        # keep each world's request objects for the lifecycle audit
        streams = e9_baselines._streams

        def streams_kept(*args, **kwargs):
            edge, cloud = streams(*args, **kwargs)
            state["streams"].append(list(edge) + list(cloud))
            return edge, cloud

        e9_baselines._streams = streams_kept
        try:
            return e9_baselines.run(seed=state["seed"])
        finally:
            e9_baselines._streams = streams

    def verify(self, state, result, out: Outcome) -> str:
        names = list(result.data)
        out.check(len(state["streams"]) == len(names) == 4,
                  f"{len(state['streams'])} streams for worlds {names}")
        for name, requests in zip(names, state["streams"]):
            outcomes = request_outcomes(requests)
            out.op(outcome_failures(outcomes) == 0
                   and len(requests) == state["requests"],
                   f"{name}: lost or inconsistent requests {outcomes}")
            out.note(f"{name} request outcomes: {fmt_counts(outcomes)}")
        check_golden(self.name, state["seed"], str(result), out)
        return digest(str(result) + repr(sorted(
            (w, sorted(row.items())) for w, row in result.data.items())))


WORKLOADS = {w.name: w for w in (HeatingSeason, ChurnSweep, BaselineWorlds)}
