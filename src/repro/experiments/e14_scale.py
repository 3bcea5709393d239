"""E14 (extension) — "But at what scale?" (§III-C).

"There is no doubt that with DF servers, we can build systems with near
real-time response time.  But at what scale ...?  This is more tricky."

A weak-scaling sweep: the city grows (1 → 4 districts, fleet 6 → 24 Q.rads)
with edge load proportional to the building count.  If the DF3 architecture
scales, per-request QoS is flat: clusters are independent, masters are
per-district, and no central component sees more than its own district.

The rendered table is a pure function of the seed (``sim_events`` is the
deterministic engine event count); the wall-clock throughput of each point
(``events_per_s``, ``wall_s``) stays in ``data`` only, because it varies
with the host and would break the golden/cache byte-identity contract.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.latency import LatencyStats
from repro.metrics.report import Table
from repro.runner.runner import run_sweep
from repro.runner.spec import SweepPoint, SweepPrefix, SweepSpec
from repro.sim.calendar import DAY
from repro.sim.rng import RngRegistry
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

__all__ = ["run", "SWEEP"]

#: the weak-scaling axis: number of districts per point
DISTRICT_STEPS = (1, 2, 4)


def _workload_plan(seed: int, sim_days: float):
    """E14's shared prefix: edge plans for the *largest* city's buildings.

    Rng streams are name-keyed per building, so the plan of
    ``district-0/building-1`` is identical no matter how many districts the
    consuming point simulates — smaller points just materialize the subset
    of buildings they actually have.
    """
    t0 = mid_month_start(1)
    rngs = RngRegistry(seed)
    names = [f"district-{d}/building-{b}"
             for d in range(max(DISTRICT_STEPS)) for b in range(2)]
    return tuple(
        (bname,
         EdgeWorkloadGenerator(rngs.stream(f"edge-{bname}"), source=bname,
                               config=EdgeWorkloadConfig(rate_per_hour=60.0)
                               ).plan(t0, t0 + sim_days * DAY))
        for bname in names
    )


def _scale_point(n_districts: int, seed: int, sim_days: float,
                 *, plan) -> Dict[str, float]:
    t0 = mid_month_start(1)
    mw = small_city(seed=seed, start_time=t0, n_districts=n_districts,
                    buildings_per_district=2, rooms_per_building=3,
                    saturation_policy=SaturationPolicy.PREEMPT)
    plans = dict(plan)
    rngs = RngRegistry(seed)
    edge = []
    for bname in mw.buildings:
        gen = EdgeWorkloadGenerator(rngs.stream(f"edge-{bname}"), source=bname,
                                    config=EdgeWorkloadConfig(rate_per_hour=60.0))
        edge.extend(gen.materialize(plans[bname]))
    mw.inject(edge)
    wall0 = time.perf_counter()
    mw.run_until(t0 + (sim_days + 0.05) * DAY)
    wall = time.perf_counter() - wall0
    stats = LatencyStats.from_requests(mw.completed_edge(), mw.expired_edge())
    return {
        "servers": len(mw.all_servers),
        "edge_requests": len(edge),
        "median_ms": stats.median_s * 1e3,
        "p95_ms": stats.p95_s * 1e3,
        "miss_rate": mw.edge_deadline_miss_rate(),
        "events": mw.engine.events_executed,
        # host-dependent — reported in data, never in the rendered table
        "wall_s": wall,
        "events_per_s": mw.engine.events_executed / wall if wall > 0 else float("inf"),
    }


def sweep_points(seed: int = 83, sim_days: float = 0.25) -> List[SweepPoint]:
    """One point per city size on the weak-scaling axis."""
    return [
        SweepPoint(
            experiment_id="E14",
            point_id=f"districts={n}",
            cell="repro.experiments.e14_scale:_scale_point",
            params=(("n_districts", n), ("seed", seed), ("sim_days", sim_days)),
            needs=(("plan", "workload-plan"),),
        )
        for n in DISTRICT_STEPS
    ]


def sweep_prefixes(seed: int = 83, sim_days: float = 0.25) -> List[SweepPrefix]:
    """The union workload plan every scale point draws its buildings from."""
    return [SweepPrefix(
        experiment_id="E14", prefix_id="workload-plan",
        cell="repro.experiments.e14_scale:_workload_plan",
        params=(("seed", seed), ("sim_days", sim_days)),
    )]


def sweep_reduce(cells: Dict[str, Any], seed: int = 83,
                 sim_days: float = 0.25) -> ExperimentResult:
    """Reassemble scale points into the weak-scaling table."""
    points = {n: cells[f"districts={n}"] for n in DISTRICT_STEPS}
    table = Table(
        ["districts", "servers", "edge_reqs", "median_ms", "p95_ms", "miss_rate",
         "sim_events"],
        title="E14 — weak scaling of the DF3 city (§III-C)",
    )
    for n, p in points.items():
        table.add_row(n, p["servers"], p["edge_requests"], round(p["median_ms"], 1),
                      round(p["p95_ms"], 1), round(p["miss_rate"], 4),
                      int(p["events"]))
    return ExperimentResult(
        experiment_id="E14",
        title="Weak scaling: QoS vs city size (§III-C)",
        text=table.render(),
        data={str(n): p for n, p in points.items()},
    )


SWEEP = SweepSpec("E14", points=sweep_points, reduce=sweep_reduce,
                  prefixes=sweep_prefixes)


def run(seed: int = 83, sim_days: float = 0.25) -> ExperimentResult:
    """Weak scaling over 1, 2 and 4 districts."""
    return run_sweep(SWEEP, seed=seed, sim_days=sim_days)
