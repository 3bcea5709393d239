"""E4 — architecture class 1 (shared) vs class 2 (dedicated) (§III-B).

Class 2 "can guarantee a minimal quality of service, what is particularly
interesting if there are few requests", but "How do we decide on the number of
workers?  How do we manage peak of requests?"  We run both architectures under
a heavy DCC background at two edge intensities (steady and burst) and sweep
the dedicated-pool size, reporting edge deadline misses and DCC throughput.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.requests import CloudRequest
from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.report import Table
from repro.runner.runner import run_sweep
from repro.runner.spec import SweepPoint, SweepPrefix, SweepSpec
from repro.sim.calendar import HOUR
from repro.sim.rng import RngRegistry
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

__all__ = ["run", "SWEEP"]

#: (point-id suffix, architecture, dedicated pool, display label) in row order
_VARIANTS = (
    ("shared", "shared", 0, "shared (class 1)"),
    ("dedicated-1", "dedicated", 1, "dedicated pool=1 (class 2)"),
    ("dedicated-2", "dedicated", 2, "dedicated pool=2 (class 2)"),
    ("dedicated-3", "dedicated", 3, "dedicated pool=3 (class 2)"),
)

_GHZ = 1e9


def _edge_gen(rngs: RngRegistry) -> EdgeWorkloadGenerator:
    return EdgeWorkloadGenerator(
        rngs.stream("e4-edge"), source="district-0/building-0",
        config=EdgeWorkloadConfig(rate_per_hour=240.0),
    )


def _workload_plan(seed: int):
    """E4's shared prefix: cloud draws + steady and burst edge plans.

    Identical for all eight scenarios (they vary architecture and whether
    the burst is *injected*, not the draws).  The burst plan is drawn after
    the steady plan from the same named stream — the order the historical
    cells consumed it — so steady cells simply ignore it.
    """
    t0 = mid_month_start(1)
    rngs = RngRegistry(seed)
    rng = rngs.stream("e4-cloud")
    cloud = tuple(
        (float(rng.uniform(0.8e13, 1.2e13)),
         t0 + float(rng.uniform(0, 1.0 * HOUR)))
        for _ in range(400)
    )
    edge_gen = _edge_gen(rngs)
    steady = edge_gen.plan(t0, t0 + 2 * HOUR)
    burst = edge_gen.plan_burst(t0 + HOUR, n=400, spacing_s=0.05)
    return (cloud, steady, burst)


def _scenario(architecture: str, dedicated: int, burst: bool, seed: int,
              *, plan) -> Dict[str, float]:
    t0 = mid_month_start(1)
    mw = small_city(
        seed=seed, start_time=t0, architecture=architecture,
        dedicated_per_cluster=dedicated if architecture == "dedicated" else 1,
        saturation_policy=SaturationPolicy.QUEUE, enable_filler=False,
        dc_nodes=0,
    )
    cloud_plan, steady_plan, burst_plan = plan
    # DCC background sized to ≈ the whole fleet's 2-hour cycle budget, so
    # the cluster is genuinely contended (the §III-B "cluster is full" regime)
    cloud: List[CloudRequest] = [
        CloudRequest(cycles=cycles, time=time, cores=1)
        for cycles, time in cloud_plan
        # single-core jobs pack the fleet with no fragmentation
    ]
    edge_gen = _edge_gen(RngRegistry(seed))
    edge = edge_gen.materialize(steady_plan)
    if burst:
        burst_reqs = edge_gen.materialize(burst_plan)
        # a real burst comes from many devices at once — give each its own
        # radio so the cluster, not one uplink, is what saturates
        for i, r in enumerate(burst_reqs):
            r.source = f"district-0/building-{i % 2}/dev-{i % 80}"
        edge += burst_reqs
        edge.sort(key=lambda r: r.time)
    mw.inject(cloud)
    mw.inject(edge)
    mw.run_until(t0 + 2 * HOUR)
    done_cloud = len(mw.completed_cloud())
    return {
        "edge_miss": mw.edge_deadline_miss_rate(),
        "cloud_done": done_cloud,
        "cloud_cycles_done": sum(r.cycles for r in mw.completed_cloud()),
    }


def sweep_points(seed: int = 23) -> List[SweepPoint]:
    """One point per (edge load, architecture variant) scenario."""
    return [
        SweepPoint(
            experiment_id="E4",
            point_id=f"{'burst' if burst else 'steady'}/{vid}",
            cell="repro.experiments.e4_architectures:_scenario",
            params=(("architecture", arch), ("dedicated", pool),
                    ("burst", burst), ("seed", seed)),
            needs=(("plan", "workload-plan"),),
        )
        for burst in (False, True)
        for vid, arch, pool, _ in _VARIANTS
    ]


def sweep_prefixes(seed: int = 23) -> List[SweepPrefix]:
    """The shared workload plan all eight scenarios consume."""
    return [SweepPrefix(
        experiment_id="E4", prefix_id="workload-plan",
        cell="repro.experiments.e4_architectures:_workload_plan",
        params=(("seed", seed),),
    )]


def sweep_reduce(cells: Dict[str, Any], seed: int = 23) -> ExperimentResult:
    """Reassemble the eight scenarios into the architecture table."""
    rows = []
    for burst in (False, True):
        load = "burst" if burst else "steady"
        for vid, _, _, label in _VARIANTS:
            rows.append((load, label, cells[f"{load}/{vid}"]))

    table = Table(["edge_load", "architecture", "edge_miss_rate", "cloud_completed"],
                  title="E4 — shared vs dedicated workers under DCC pressure")
    for load, arch, r in rows:
        table.add_row(load, arch, round(r["edge_miss"], 3), r["cloud_done"])

    data = {f"{load}/{arch}": r for load, arch, r in rows}
    return ExperimentResult(
        experiment_id="E4",
        title="Architecture classes 1 vs 2 (§III-B)",
        text=table.render(),
        data=data,
    )


SWEEP = SweepSpec("E4", points=sweep_points, reduce=sweep_reduce,
                  prefixes=sweep_prefixes)


def run(seed: int = 23) -> ExperimentResult:
    """Shared vs dedicated (pool sizes 1, 2, 3) × steady/burst edge load."""
    return run_sweep(SWEEP, seed=seed)
