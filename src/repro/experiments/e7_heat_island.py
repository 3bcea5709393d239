"""E7 — urban heat island: who rejects heat outdoors in summer? (§III-A/C)

Four substrates execute the same July compute load; the ledger books every
joule rejected outdoors:

* **df3 on-demand** — the paper's proposal: no heat requested → boards off,
  work migrates to the datacenter... but here we measure the *city side*:
  near-zero outdoor heat;
* **e-radiator summer mode** — the Nerdalize dual pipe "expelled outside"
  behaviour the paper explicitly flags as air-conditioner-like;
* **always-on boiler** — §III-C: "With a boiler that always generates heat,
  the intensity of the waste heat rejected will be more important" (July tank
  draw is small, so most compute heat overflows);
* **air-cooled datacenter** — IT + compressor heat, all outdoors.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.hardware.boiler import STIMERGY_SMALL, DigitalBoiler
from repro.hardware.datacenter import Datacenter
from repro.hardware.qrad import ERadiator, HeatDumpMode
from repro.hardware.server import Task
from repro.metrics.report import Table
from repro.obs import get_obs
from repro.sim.calendar import DAY, HOUR
from repro.sim.engine import Engine
from repro.thermal.heat_island import HeatIslandLedger, OutdoorHeatSource
from repro.thermal.hydronics import DrawProfile, WaterLoop, WaterLoopConfig

__all__ = ["run"]

_GHZ = 1e9


def _fill(server, cycles_per_core: float) -> None:
    for c in range(server.n_cores):
        server.submit(Task(f"{server.name}-j{c}", cycles_per_core, cores=1))


def run(duration_days: float = 1.0, seed: int = 31) -> ExperimentResult:
    """Same July day of compute on four substrates; outdoor-heat table."""
    t0 = mid_month_start(7)
    duration = duration_days * DAY
    results: Dict[str, Dict[str, float]] = {}
    work_per_core = 3.5 * _GHZ * duration * 0.8  # ~80% busy all day

    # --- df3 on-demand: July rooms reject heat; boards stay off ---------- #
    mw = small_city(seed=seed, start_time=t0, dc_nodes=0, enable_filler=True)
    mw.run_until(t0 + duration)
    results["df3 on-demand"] = {
        "outdoor_kwh": mw.ledger.total_outdoor_j / 3.6e6,
        "cycles": mw.total_cycles_executed(),
    }

    # --- e-radiator summer dump ----------------------------------------- #
    eng = Engine(start=t0, **get_obs().engine_hooks())
    ledger = HeatIslandLedger()
    rads = [ERadiator(f"erad-{i}", eng) for i in range(6)]
    for r in rads:
        r.set_dump_mode(HeatDumpMode.OUTDOOR)
        _fill(r, work_per_core)

    def erad_tick(now: float, dt: float) -> None:
        for r in rads:
            r.sync()
            ledger.add_outdoor(OutdoorHeatSource.ERADIATOR_SUMMER, r.outdoor_heat_w() * dt)

    eng.add_process("erad", 600.0, erad_tick)
    eng.run_until(t0 + duration)
    for r in rads:
        r.sync()
    results["e-radiator (summer dump)"] = {
        "outdoor_kwh": ledger.total_outdoor_j / 3.6e6,
        "cycles": sum(r.cycles_executed for r in rads),
    }

    # --- always-on boiler ------------------------------------------------ #
    eng = Engine(start=t0, **get_obs().engine_hooks())
    ledger = HeatIslandLedger()
    loop = WaterLoop(WaterLoopConfig(), t_init_c=55.0)
    boiler = DigitalBoiler("b0", eng, loop, spec=STIMERGY_SMALL,
                           draw_profile=DrawProfile(daily_litres=300.0),  # summer draw
                           ledger=ledger)
    _fill(boiler, work_per_core)
    eng.add_process(
        "boiler", 600.0,
        lambda now, dt: boiler.thermal_step(now, dt, (now / HOUR) % 24.0),
    )
    eng.run_until(t0 + duration)
    boiler.sync()
    results["always-on boiler"] = {
        "outdoor_kwh": ledger.total_outdoor_j / 3.6e6,
        "cycles": boiler.cycles_executed,
    }

    # --- air-cooled datacenter ------------------------------------------ #
    eng = Engine(start=t0, **get_obs().engine_hooks())
    ledger = HeatIslandLedger()
    dc = Datacenter("dc", 3, eng, ledger=ledger)
    for node in dc.nodes:
        _fill(node, 3.2 * _GHZ * duration * 0.8)
    eng.add_process("dc", 600.0, lambda now, dt: dc.account_heat(dt))
    eng.run_until(t0 + duration)
    results["air-cooled dc"] = {
        "outdoor_kwh": ledger.total_outdoor_j / 3.6e6,
        "cycles": sum(n.cycles_executed for n in dc.nodes),
    }

    table = Table(["substrate", "outdoor_heat_kwh", "kwh_outdoor_per_Pcycle"],
                  title="E7 — outdoor heat rejection on a July day (§III-A/C)")
    for name, r in results.items():
        per = (r["outdoor_kwh"] / (r["cycles"] / 1e15)) if r["cycles"] > 0 else 0.0
        table.add_row(name, round(r["outdoor_kwh"], 2), round(per, 2))

    return ExperimentResult(
        experiment_id="E7",
        title="Urban heat island: waste-heat rejection (§III-A/C)",
        text=table.render(),
        data={k: v["outdoor_kwh"] for k, v in results.items()},
    )
