"""A6 (extension) — recovery policies under stochastic churn (§III-C).

The paper flags "the availability and stability of DF servers" as an open
problem: boards in homes get unplugged, lose power with their building, and
their masters and WAN uplinks flap.  A2 injects three hand-placed faults;
this experiment turns the full stochastic churn model loose on a winter day
and asks *which recovery policies buy back the lost service*.

Setup: the canonical small city under a heavy DCC load (ten 16-core,
multi-hour batch jobs — long enough that a crash-restart loop without
checkpoints rarely finishes) plus a day of building-IoT edge traffic.  Churn
draws per-server failures at three MTBF levels, building-level power cuts,
short master flaps, and WAN partitions — identical draws for every policy
bundle at a fixed seed, so comparisons are paired.

Bundles compared (:class:`repro.core.resilience.RecoveryConfig`):

* **none** — failures detected (heartbeat timeout ≈ 2.5 s) but nothing
  recovered: crashed edge work dies, cloud jobs restart from scratch;
* **retry** — crashed/rejected edge requests resubmit with exponential
  backoff + jitter while their deadline still permits;
* **clone** — indirect edge requests are speculatively duplicated to the
  peer district; first completion wins, the loser is cancelled;
* **clone-cs** — synchronized-service cloning (the PS-model discipline):
  the sibling is cancelled the instant either copy *starts* executing, and
  spawning is gated on the home district's paying load, so the speculation
  buys the same failure cover at near-zero cycle waste;
* **checkpoint** — cloud tasks checkpoint every 10 min; salvage restarts
  from the last snapshot, so capacity is not eaten by endless redo;
* **adaptive** — retry + checkpoint + cancel-on-start cloning, with the
  :class:`~repro.core.resilience.policy.PolicyController` re-picking the
  tight edge class's discipline at runtime from measured detection latency
  and rolling utilisation;
* **all** — every fixed policy at once, plus master failover and
  store-and-forward WAN buffering.

Reported per (MTBF, bundle): edge served-in-deadline rate, cloud completions,
wasted gigacycles split by attribution (losing-clone work vs crash redo) and
detection latency p50/p99.  The reduce step also computes, per MTBF level,
the **waste-vs-deadline Pareto frontier** — the bundles not dominated on
(wasted Gcycles ↓, served rate ↑) — published under ``data["pareto"]`` and
asserted by the resilience CI benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.requests import CloudRequest
from repro.core.resilience import (
    ChurnConfig,
    DetectorConfig,
    RecoveryConfig,
    ResilienceConfig,
)
from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.report import Table
from repro.runner.runner import run_sweep
from repro.runner.spec import SweepPoint, SweepPrefix, SweepSpec
from repro.sim.calendar import DAY, HOUR
from repro.sim.rng import RngRegistry
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

__all__ = ["run", "BUNDLES", "MTBF_LEVELS_S", "SWEEP"]

#: building names of the canonical 2×2 small city, in middleware order —
#: a pure formula (see repro.core.middleware), so the workload plan prefix
#: can be computed without constructing a city
_BUILDINGS = tuple(f"district-{d}/building-{b}"
                   for d in range(2) for b in range(2))

#: the recovery bundles compared (order = report order)
BUNDLES = {
    "none": RecoveryConfig.none(),
    "retry": RecoveryConfig(retry=True, retry_max_attempts=6),
    "clone": RecoveryConfig(clone=True, clone_deadline_threshold_s=20.0),
    "clone-cs": RecoveryConfig(clone=True, clone_deadline_threshold_s=20.0,
                               clone_cancel_on="start",
                               clone_max_utilisation=0.95,
                               clone_max_queue_depth=8),
    "checkpoint": RecoveryConfig(checkpoint=True, checkpoint_interval_s=600.0),
    "adaptive": RecoveryConfig.adaptive_on(retry_max_attempts=6,
                                           clone_deadline_threshold_s=20.0,
                                           checkpoint_interval_s=600.0),
    "all": RecoveryConfig.all_on(retry_max_attempts=6,
                                 clone_deadline_threshold_s=20.0,
                                 checkpoint_interval_s=600.0),
}

#: per-server MTBF sweep (label → seconds); 2 h is brutal, 24 h is benign
MTBF_LEVELS_S = {"mtbf=2h": 2 * 3600.0, "mtbf=8h": 8 * 3600.0,
                 "mtbf=24h": 24 * 3600.0}


def _resilience(mtbf_s: float, recovery: RecoveryConfig) -> ResilienceConfig:
    return ResilienceConfig(
        churn=ChurnConfig(
            server_mtbf_s=mtbf_s,
            server_mttr_s=900.0,
            building_cut_rate_per_day=2.0,
            building_cut_duration_s=600.0,
            master_mtbf_s=1800.0,   # frequent but short master flaps:
            master_mttr_s=20.0,     # retries can bridge them, rejects cannot
            wan_flap_rate_per_day=4.0,
            wan_flap_duration_s=300.0,
        ),
        detector=DetectorConfig(heartbeat_interval_s=1.0, timeout_s=2.5),
        recovery=recovery,
    )


def _edge_config() -> EdgeWorkloadConfig:
    return EdgeWorkloadConfig(
        rate_per_hour=120.0, mean_megacycles=400.0,
        # deadlines loose enough that a detected crash (+2.5 s) or a
        # short master flap (+ backoff) is still recoverable
        deadline_classes=((2.0, 0.4), (5.0, 0.4), (15.0, 0.2)),
    )


def _workload_plan(seed: int):
    """A6's shared prefix: the day of edge traffic as per-building plans.

    Identical for all 21 (MTBF, bundle) cells — the grid varies resilience,
    not workload — so the runner computes it once and fans it out.
    Pure data, globally inert: rng streams are name-keyed per building and
    no request objects (hence no request ids) exist until each cell
    materializes the plan locally.
    """
    t0 = mid_month_start(1)
    rngs = RngRegistry(seed)
    return tuple(
        (bname,
         EdgeWorkloadGenerator(rngs.stream(f"edge-{bname}"), source=bname,
                               config=_edge_config()).plan(t0, t0 + DAY))
        for bname in _BUILDINGS
    )


def _build_cell(seed: int, mtbf_s: float, recovery: RecoveryConfig,
                plan=None):
    """Build one (MTBF level, bundle) cell: city + injected workloads.

    Split from :func:`_run_cell` so step-wise drivers (the service layer's
    determinism tests) can advance the identical simulation in slices.
    ``plan`` optionally injects the precomputed :func:`_workload_plan`
    (the sweep's shared prefix node); when ``None`` — direct callers such
    as the step-wise tests — the identical plan is computed inline.  Returns ``(mw, t0, edge, cloud)``; the cell's horizon
    is ``t0 + DAY + 2 * HOUR``.
    """
    t0 = mid_month_start(1)
    mw = small_city(seed=seed, start_time=t0,
                    saturation_policy=SaturationPolicy.QUEUE,
                    resilience=_resilience(mtbf_s, recovery))

    if plan is None:
        plan = _workload_plan(seed)
    rngs = RngRegistry(seed)
    edge = []
    for bname, building_plan in plan:
        gen = EdgeWorkloadGenerator(rngs.stream(f"edge-{bname}"),
                                    source=bname, config=_edge_config())
        edge.extend(gen.materialize(building_plan))
    mw.inject(edge)

    # ten 16-core ~2.5 h batch jobs: each monopolises one Q.rad, and at the
    # harshest MTBF a from-scratch restart loop rarely lets one finish
    cloud = [CloudRequest(cycles=5e14, time=t0 + 0.5 * HOUR + i * 600.0,
                          cores=16, preemptible=False) for i in range(10)]
    mw.inject(cloud)
    return mw, t0, edge, cloud


def _finish_cell(mw, edge, cloud) -> Dict[str, float]:
    """Reduce a fully-run cell to its metrics row."""
    served = sum(1 for r in edge
                 if r.status.value == "completed" and r.deadline_met())
    log = mw.resilience.log
    return {
        "served_rate": served / len(edge),
        "edge_submitted": len(edge),
        "cloud_done": sum(1 for r in cloud if r.status.value == "completed"),
        "wasted_gcycles": log.wasted_cycles / 1e9,
        "clone_waste_gcycles": log.clone_waste_cycles / 1e9,
        "failure_waste_gcycles": log.failure_waste_cycles / 1e9,
        "detect_p50_s": log.detection_latency_percentile(50),
        "detect_p99_s": log.detection_latency_percentile(99),
        "server_failures": log.server_failures,
        "clones": log.clones_spawned,
        "clone_skips": log.policy_decisions.get("skip_clone", 0),
        "policy_switches": (mw.resilience.policy.switches
                            if mw.resilience.policy is not None else 0),
        "failovers": log.failovers,
        "salvaged": log.tasks_salvaged,
        "checkpoints": log.checkpoints_taken,
    }


def _run_cell(seed: int, mtbf_s: float, recovery: RecoveryConfig,
              plan=None) -> Dict[str, float]:
    """One (MTBF level, bundle) city-day; returns its metrics row."""
    mw, t0, edge, cloud = _build_cell(seed, mtbf_s, recovery, plan=plan)
    mw.run_until(t0 + DAY + 2 * HOUR)
    return _finish_cell(mw, edge, cloud)


def sweep_points(seed: int = 101) -> List[SweepPoint]:
    """One point per (MTBF level, recovery bundle) cell of the grid."""
    return [
        SweepPoint(
            experiment_id="A6",
            point_id=f"{mtbf_label}/{policy}",
            cell="repro.experiments.a6_churn:_run_cell",
            params=(("seed", seed), ("mtbf_s", mtbf_s), ("recovery", recovery)),
            needs=(("plan", "workload-plan"),),
        )
        for mtbf_label, mtbf_s in MTBF_LEVELS_S.items()
        for policy, recovery in BUNDLES.items()
    ]


def sweep_prefixes(seed: int = 101) -> List[SweepPrefix]:
    """The shared workload plan every grid cell consumes."""
    return [SweepPrefix(
        experiment_id="A6",
        prefix_id="workload-plan",
        cell="repro.experiments.a6_churn:_workload_plan",
        params=(("seed", seed),),
    )]


def _pareto_front(level: Dict[str, Dict[str, float]]) -> List[str]:
    """Bundles not dominated on (wasted_gcycles ↓, served_rate ↑).

    ``p`` is dominated when some other bundle wastes no more *and* serves no
    less, with at least one strict inequality.  Returned in report order.
    """
    names = list(level)
    front = []
    for p in names:
        w, s = level[p]["wasted_gcycles"], level[p]["served_rate"]
        dominated = any(
            level[q]["wasted_gcycles"] <= w and level[q]["served_rate"] >= s
            and (level[q]["wasted_gcycles"] < w or level[q]["served_rate"] > s)
            for q in names if q != p)
        if not dominated:
            front.append(p)
    return front


def sweep_reduce(cells: Dict[str, Any], seed: int = 101) -> ExperimentResult:
    """Reassemble the grid cells into the A6 table + Pareto footer."""
    table = Table(["mtbf", "policy", "edge_served", "cloud_done",
                   "clone_waste", "fail_waste", "detect_p50", "detect_p99"],
                  title="A6 — recovery policies under churn")
    data: Dict[str, Any] = {}
    for mtbf_label in MTBF_LEVELS_S:
        data[mtbf_label] = {}
        for policy in BUNDLES:
            cell = cells[f"{mtbf_label}/{policy}"]
            data[mtbf_label][policy] = cell
            table.add_row(
                mtbf_label, policy, f"{cell['served_rate']:.2%}",
                cell["cloud_done"], f"{cell['clone_waste_gcycles']:.0f}",
                f"{cell['failure_waste_gcycles']:.0f}",
                f"{cell['detect_p50_s']:.2f}s", f"{cell['detect_p99_s']:.2f}s",
            )
    # the frontier rides beside the level keys; consumers iterating levels
    # must skip it (it maps level → [policy], not level → cells)
    data["pareto"] = {label: _pareto_front(data[label])
                      for label in MTBF_LEVELS_S}

    worst = data["mtbf=2h"]
    benign = data["mtbf=24h"]
    redo_cut = (worst["none"]["wasted_gcycles"]
                / max(worst["checkpoint"]["wasted_gcycles"], 1.0))
    footer = (
        f"\nat mtbf=2h: {worst['none']['server_failures']} server failures/day;"
        f" checkpointing cuts wasted work {redo_cut:.0f}×"
        f" and finishes {worst['checkpoint']['cloud_done']}/10 batch jobs"
        f" (vs {worst['none']['cloud_done']}/10 with full restarts);"
        f"\ncloning lifts edge service {worst['none']['served_rate']:.1%}"
        f" → {worst['clone']['served_rate']:.1%} by racing the peer district"
        f" ({worst['clone']['clones']} clones)"
        f"\nPareto frontier at mtbf=24h: {', '.join(data['pareto']['mtbf=24h'])};"
        f" adaptive serves {benign['adaptive']['served_rate']:.2%} wasting"
        f" {benign['adaptive']['wasted_gcycles']:.0f} Gcycles"
        f" (first-completion cloning: {benign['clone']['served_rate']:.2%}"
        f" at {benign['clone']['wasted_gcycles']:.0f})"
    )
    return ExperimentResult(
        experiment_id="A6",
        title="Recovery policies under stochastic churn (§III-C)",
        text=table.render() + footer,
        data=data,
    )


SWEEP = SweepSpec("A6", points=sweep_points, reduce=sweep_reduce,
                  prefixes=sweep_prefixes)


def run(seed: int = 101) -> ExperimentResult:
    """Sweep recovery bundles × MTBF levels over identical churn draws."""
    return run_sweep(SWEEP, seed=seed)
