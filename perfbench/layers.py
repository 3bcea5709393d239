"""Per-layer metrics of a traced run, derived from its :class:`Ledger`.

Every traced run reports every name below; a layer the workload does not
exercise reads 0.  Counts are exact: a seed gives the same counts on any
host.  Times are host seconds measured inside the traced run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import median, percentile
from ledger import LAYERS, Ledger

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.scheduled", "count", "lower"),
    ("sim.useful_event_ratio", "ratio", "higher"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.self_s", "s", "lower"),
    ("core.df3_tick.calls", "count", "lower"),
    ("core.df3_tick_s", "s", "lower"),
    ("core.regulation.update_all_s", "s", "lower"),
    ("core.smartgrid.tick_s", "s", "lower"),
    ("core.df3_tick.workload_s", "s", "lower"),
    ("core.df3_tick.other_s", "s", "lower"),
    ("core.gateway.submit_s", "s", "lower"),
    ("core.gateway.resubmits", "count", "lower"),
    ("core.scheduling.submit_edge.calls", "count", "lower"),
    ("core.scheduling.submit_edge_s", "s", "lower"),
    ("core.scheduling.scan_key_evals", "count", "lower"),
    ("core.resilience.server_failures", "count", "lower"),
    ("core.resilience.clones", "count", "lower"),
    ("core.resilience.useful_cycle_ratio", "ratio", "higher"),
    ("thermal.fused_step_s", "s", "lower"),
    ("thermal.comfort_s", "s", "lower"),
    ("hardware.server.sync.calls", "count", "lower"),
    ("hardware.server.sync_s", "s", "lower"),
    ("hardware.server.submit.calls", "count", "lower"),
    ("hardware.server.free_cores.reads", "count", "lower"),
    ("hardware.server.reads_per_placement", "ratio", "lower"),
    ("hardware.server.completion_s", "s", "lower"),
    ("workloads.requests", "count", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("baselines.df3.run_s", "s", "lower"),
    ("baselines.cloud_only.run_s", "s", "lower"),
    ("baselines.micro_dc.run_s", "s", "lower"),
    ("baselines.desktop_grid.run_s", "s", "lower"),
    ("baselines.events", "count", "lower"),
    ("runner.nodes", "count", "lower"),
    ("runner.computed_nodes", "count", "lower"),
    ("runner.cached_nodes", "count", "higher"),
    ("runner.cache.hits", "count", "higher"),
    ("runner.cache.misses", "count", "lower"),
    ("runner.prefix_s", "s", "lower"),
    ("runner.node_s.p50", "s", "lower"),
    ("runner.node_s.max", "s", "lower"),
    ("runner.overhead_s", "s", "lower"),
    ("runner.warm_rerun_s", "s", "lower"),
    ("service.engine_slice_s.p50", "s", "lower"),
    ("service.engine_slice_s.p95", "s", "lower"),
    ("service.command_wait_ms.p95", "ms", "lower"),
    ("service.commands_applied", "count", "lower"),
    ("service.bus.published", "count", "higher"),
    ("service.bus.dropped", "count", "lower"),
    ("service.sse.events_per_s", "1/s", "higher"),
    ("service.state_dict_ms.p50", "ms", "lower"),
    ("service.inject_p50_ms", "ms", "lower"),
    ("service.inject_p95_ms", "ms", "lower"),
    ("service.read_p50_ms", "ms", "lower"),
    ("service.read_p95_ms", "ms", "lower"),
    ("obs.slo_evaluate_s", "s", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("bench.generator_lag_ms.p95", "ms", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
] + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def derive(ledger: Ledger, self_s: Dict[str, float], traced_wall_s: float,
           workload: str, extras: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from one traced pass.

    ``self_s`` is the per-layer self time of the timed phase alone (the
    ledger's totals also cover set-up); ``extras`` carries what the
    workload read from the program's own reports (runner node counts,
    resilience logs, the twin's HTTP timings).
    """
    incl, calls, counts = ledger.incl_s, ledger.calls, ledger.counts
    samples = ledger.samples
    prof = ledger.profile_stats()
    tick = prof.get("process:df3-tick", {"calls": 0, "total_s": 0.0})
    # the thermal stage, not fused_step + comfort: the baseline worlds
    # track comfort outside any df3-tick
    tick_parts = (incl["core.regulation.update_all"]
                  + incl["core.smartgrid.tick"]
                  + incl["core.df3_tick.workload"]
                  + incl["core.df3_tick.thermal"])
    placements = counts["hardware.server.placements"]
    nodes = samples.get("runner.node.point", []) \
        + samples.get("runner.node.prefix", [])
    slices = samples.get("core.mw.run_until", []) \
        if workload == "twin-serve" else []
    wait = samples.get("service.command_wait", [])
    state = samples.get("service.state_dict", [])
    sim_events = counts["sim.events"]
    run_s = incl["sim.run_until"] + incl["sim.step_until"]
    baselines = workload == "baseline-worlds"
    out: Dict[str, float] = {
        "sim.events": sim_events,
        "sim.scheduled": counts["sim.scheduled"],
        "sim.useful_event_ratio": (sim_events / counts["sim.scheduled"]
                                   if counts["sim.scheduled"] else 0.0),
        "sim.events_per_s": sim_events / run_s if run_s > 0 else 0.0,
        "sim.self_s": self_s.get("sim", 0.0),
        "core.df3_tick.calls": int(tick["calls"]),
        "core.df3_tick_s": tick["total_s"],
        "core.regulation.update_all_s": incl["core.regulation.update_all"],
        "core.smartgrid.tick_s": incl["core.smartgrid.tick"],
        "core.df3_tick.workload_s": incl["core.df3_tick.workload"],
        "core.df3_tick.other_s": max(0.0, tick["total_s"] - tick_parts),
        "core.gateway.submit_s": incl["core.gateway.submit"],
        "core.gateway.resubmits": calls["core.gateway.resubmit"],
        "core.scheduling.submit_edge.calls":
            calls["core.scheduling.submit_edge"],
        "core.scheduling.submit_edge_s": incl["core.scheduling.submit_edge"],
        "core.scheduling.scan_key_evals":
            counts["core.scheduling.scan_key_evals"],
        "core.resilience.server_failures": 0,
        "core.resilience.clones": 0,
        "core.resilience.useful_cycle_ratio": 0.0,
        "thermal.fused_step_s": incl["thermal.fused_step"],
        "thermal.comfort_s": incl["thermal.comfort"],
        "hardware.server.sync.calls": calls["hardware.server.sync"],
        "hardware.server.sync_s": incl["hardware.server.sync"],
        "hardware.server.submit.calls": calls["hardware.server.submit"],
        "hardware.server.free_cores.reads":
            counts["hardware.server.free_cores.reads"],
        "hardware.server.reads_per_placement":
            (counts["hardware.server.free_cores.reads"] / placements
             if placements else 0.0),
        "hardware.server.completion_s": incl["hardware.server.completion"],
        "workloads.requests": counts["workloads.requests"],
        "workloads.generate_s": incl["workloads.generate"],
        "baselines.df3.run_s": incl["core.mw.run_until"] if baselines else 0.0,
        "baselines.cloud_only.run_s": incl["baselines.cloud_only.run"],
        "baselines.micro_dc.run_s": incl["baselines.micro_dc.run"],
        "baselines.desktop_grid.run_s": incl["baselines.desktop_grid.run"],
        "baselines.events": counts["baselines.events"],
        "runner.nodes": 0,
        "runner.computed_nodes": 0,
        "runner.cached_nodes": 0,
        "runner.cache.hits": 0,
        "runner.cache.misses": 0,
        "runner.prefix_s": incl["runner.node.prefix"],
        "runner.node_s.p50": median(nodes),
        "runner.node_s.max": max(nodes) if nodes else 0.0,
        "runner.overhead_s": self_s.get("runner", 0.0),
        "runner.warm_rerun_s": 0.0,
        "service.engine_slice_s.p50": median(slices),
        "service.engine_slice_s.p95": percentile(slices, 95),
        "service.command_wait_ms.p95": percentile(wait, 95) * 1e3,
        "service.commands_applied": 0,
        "service.bus.published": 0,
        "service.bus.dropped": 0,
        "service.sse.events_per_s": 0.0,
        "service.state_dict_ms.p50": median(state) * 1e3,
        "service.inject_p50_ms": 0.0,
        "service.inject_p95_ms": 0.0,
        "service.read_p50_ms": 0.0,
        "service.read_p95_ms": 0.0,
        "obs.slo_evaluate_s": incl["obs.slo_evaluate"],
        "obs.trace_overhead_ratio": 0.0,
        "bench.generator_lag_ms.p95": 0.0,
        "bench.traced_wall_s": traced_wall_s,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_s.get(layer, 0.0)
    for key, value in extras.items():
        if key not in out:
            raise KeyError(f"unknown per-layer metric {key!r}")
        out[key] = value
    return out
