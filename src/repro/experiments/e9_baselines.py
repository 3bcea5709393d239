"""E9 — DF3 against the architectures the paper argues with (§I, §V).

Identical winter-day request streams (edge + cloud) on four worlds:

* **df3** — the paper's proposal (this repository's middleware);
* **cloud-only** — everything across the WAN, resistive home heating;
* **micro-dc** — Schneider-style distributed server rooms (§V);
* **desktop-grid** — opportunistic volunteer desktops (§I, refs [3–5]).

Reported: edge latency and deadline misses, total electrical energy
(compute + cooling + resistive heating where applicable), and the
owner-discomfort account for the desktop grid.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.cloud_only import CloudOnlyBaseline
from repro.baselines.desktop_grid import DesktopGridBaseline
from repro.baselines.micro_dc import MicroDatacenterBaseline
from repro.core.requests import EdgeRequest, RequestStatus
from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.latency import LatencyStats
from repro.metrics.report import Table
from repro.sim.calendar import DAY
from repro.sim.rng import RngRegistry
from repro.workloads.cloud import CloudJobConfig, CloudJobGenerator
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

__all__ = ["run"]


def _plan(seed: int, t0: float, t1: float):
    """Every rng draw of E9's streams: ``(generator, plan)`` for the four
    buildings' edge flows, then for the cloud flow.  Request-id free, so one
    plan serves all four worlds."""
    rngs = RngRegistry(seed)
    edge = []
    for d in range(2):
        for b in range(2):
            src = f"district-{d}/building-{b}"
            gen = EdgeWorkloadGenerator(rngs.stream(f"edge-{src}"), source=src,
                                        config=EdgeWorkloadConfig(rate_per_hour=40.0))
            edge.append((gen, gen.plan(t0, t1)))
    cloud = CloudJobGenerator(rngs.stream("cloud"), CloudJobConfig(rate_per_hour=10.0))
    return edge, (cloud, cloud.plan(t0, t1))


def _streams(seed: int, t0: float, t1: float, plans=None):
    """One world's fresh edge and cloud requests (new request ids), built
    from ``plans`` (``_plan(seed, t0, t1)``, drawn here if not given)."""
    edge_plans, (cloud, cloud_plan) = plans or _plan(seed, t0, t1)
    edge: List[EdgeRequest] = []
    for gen, plan in edge_plans:
        edge.extend(gen.materialize(plan))
    return edge, cloud.materialize(cloud_plan)


def _edge_stats(completed, extra_miss: int = 0):
    done = [r for r in completed if r.status is RequestStatus.COMPLETED]
    if not done:
        return float("nan"), 1.0
    stats = LatencyStats.from_requests(done)
    misses = sum(1 for r in done if not r.deadline_met()) + extra_miss
    return stats.median_s, misses / (len(done) + extra_miss)


def run(duration_days: float = 1.0, seed: int = 41) -> ExperimentResult:
    """Same streams, four worlds, one comparison table."""
    t0 = mid_month_start(1)
    t1 = t0 + duration_days * DAY
    horizon = t1 + 0.5 * DAY
    results: Dict[str, Dict[str, float]] = {}

    plans = _plan(seed, t0, t1)

    def fresh_streams():
        return _streams(seed, t0, t1, plans)

    # --- DF3 -------------------------------------------------------------- #
    mw = small_city(seed=seed, start_time=t0,
                    saturation_policy=SaturationPolicy.PREEMPT)
    edge, cloud = fresh_streams()
    mw.inject(edge)
    mw.inject(cloud)
    mw.run_until(horizon)
    med, _ = _edge_stats(mw.completed_edge())
    results["df3"] = {
        "edge_median_ms": med * 1e3,
        "edge_miss": mw.edge_deadline_miss_rate(),
        "energy_kwh": mw.fleet_energy_j() / 3.6e6,  # heating included: it IS the heat
        "discomfort": 0.0,
        "comfort_in_band": mw.comfort.result().time_in_band,
    }

    # --- cloud-only ------------------------------------------------------- #
    b = CloudOnlyBaseline(n_rooms=12, dc_nodes=8, seed=seed, start_time=t0)
    edge, cloud = fresh_streams()
    b.inject(edge)
    b.inject(cloud)
    b.run_until(horizon)
    med, miss = _edge_stats(b.completed_edge)
    results["cloud-only"] = {
        "edge_median_ms": med * 1e3,
        "edge_miss": miss,
        "energy_kwh": b.total_energy_j() / 3.6e6,
        "discomfort": 0.0,
        "comfort_in_band": b.comfort.result().time_in_band,
    }

    # --- micro-DC ----------------------------------------------------------#
    m = MicroDatacenterBaseline(n_districts=2, nodes_per_micro_dc=2, n_rooms=12,
                                seed=seed, start_time=t0)
    edge, cloud = fresh_streams()
    m.inject(edge)
    m.inject(cloud)
    m.run_until(horizon)
    med, miss = _edge_stats(m.completed_edge)
    results["micro-dc"] = {
        "edge_median_ms": med * 1e3,
        "edge_miss": miss,
        "energy_kwh": m.total_energy_j() / 3.6e6,
        "discomfort": 0.0,
        "comfort_in_band": m.comfort.result().time_in_band,
    }

    # --- desktop grid ------------------------------------------------------#
    g = DesktopGridBaseline(n_desktops=12, seed=seed, start_time=t0)
    edge, cloud = fresh_streams()
    g.inject(edge)
    g.inject(cloud)
    g.run_until(horizon)
    med, _ = _edge_stats(g.completed_edge)
    results["desktop-grid"] = {
        "edge_median_ms": med * 1e3,
        "edge_miss": g.edge_deadline_miss_rate(),
        "energy_kwh": g.total_energy_j() / 3.6e6,
        "discomfort": g.noise_discomfort_hours,
        "comfort_in_band": float("nan"),
    }

    table = Table(
        ["architecture", "edge_median_ms", "edge_miss_rate", "energy_kwh",
         "owner_discomfort_h"],
        title="E9 — DF3 vs the alternatives on an identical winter day",
    )
    for name, r in results.items():
        table.add_row(name, round(r["edge_median_ms"], 1), round(r["edge_miss"], 3),
                      round(r["energy_kwh"], 1), round(r["discomfort"], 1))
    note = ("\n(df3/cloud-only/micro-dc energy includes keeping 12 rooms warm —"
            " resistive for the baselines, compute-heat for df3;"
            " desktop-grid heats nothing and serves edge only opportunistically)")
    return ExperimentResult(
        experiment_id="E9",
        title="Baseline comparison (§I, §V)",
        text=table.render() + note,
        data=results,
    )
