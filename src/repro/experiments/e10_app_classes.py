"""E10 — which applications suit data furnace? (§II-A, §VI)

The paper's own suitability taxonomy, quantified:

* **batch render** (Liu et al.'s seasonal class; Qarnot's bread and butter) —
  embarrassingly parallel: DF wins on energy, ties on throughput;
* **neighbourhood service** (low-bandwidth, location-based) — DF wins on
  latency: it is *in the building*;
* **tightly coupled** (§VI: "Tightly coupled applications will have poor
  network performance on data furnace systems") — iterative bulk-synchronous
  job spread over servers; DF pays building/street latency every superstep,
  the DC pays intra-rack microseconds;
* **storage** (§VI: "storage services are not interesting because they do not
  produce heat") — joules of *useful heat* per stored terabyte-hour ≈ 0.

Each class reports the metric that decides it and the winner.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ExperimentResult, mid_month_start
from repro.hardware.datacenter import Datacenter
from repro.hardware.server import Task
from repro.metrics.report import Table
from repro.network.internet import WANLink, WANProfile
from repro.obs import get_obs
from repro.sim.calendar import HOUR
from repro.sim.engine import Engine

__all__ = ["run"]

_GHZ = 1e9


def _bsp_completion(n_workers: int, supersteps: int, cycles_per_step: float,
                    rate_hz: float, sync_latency_s: float) -> float:
    """Completion time of a bulk-synchronous job: compute + barrier latency."""
    per_step = cycles_per_step / rate_hz + 2 * sync_latency_s
    return supersteps * per_step


def run(seed: int = 43) -> ExperimentResult:
    """Four application classes, DF cluster vs datacenter."""
    t0 = mid_month_start(1)
    rows = []
    data: Dict[str, Dict[str, float]] = {}

    # ---- batch render: net energy after the winter heat credit ------------ #
    # 8 one-hour frames saturating 32 cores on each substrate
    from repro.hardware.qrad import QRad

    frame_cycles = 4 * 3.5e9 * HOUR  # one hour on 4 Q.rad cores
    eng = Engine(start=t0, **get_obs().engine_hooks())
    qrads = [QRad(f"q{i}", eng) for i in range(2)]
    for i in range(8):
        qrads[i % 2].submit(Task(f"frame-{i}", frame_cycles, cores=4))
    eng.run_until(t0 + 2 * HOUR)
    for q in qrads:
        q.sync()
    df_gross = sum(q.energy_j for q in qrads) / 3.6e6
    df_net = 0.0  # every joule is heat a January room requested anyway

    eng = Engine(start=t0, **get_obs().engine_hooks())
    dc = Datacenter("dc", 1, eng)
    for i in range(8):
        dc.submit(Task(f"frame-{i}", frame_cycles, cores=4))
    eng.run_until(t0 + 2 * HOUR)
    for n in dc.nodes:
        n.sync()
    dc_gross = sum(n.energy_j for n in dc.nodes) / 3.6e6
    rows.append(("batch render", "net kWh per 8 frames (winter)",
                 f"{df_net:.2f} (gross {df_gross:.2f}, all useful heat)",
                 f"{dc_gross:.2f}", "DF"))
    data["batch"] = {"df_net": df_net, "df_gross": df_gross, "dc": dc_gross}

    # ---- neighbourhood service: response latency -------------------------- #
    lan_rtt = 2 * 0.0015          # device → building server
    wan = WANLink(WANProfile.continental_internet())
    wan_rtt = wan.round_trip(2e3, 500)
    exec_local = 0.05 * _GHZ / (2.0 * _GHZ)   # 50 Mcycles at a capped Q.rad
    exec_dc = 0.05 * _GHZ / (3.2 * _GHZ)
    df_lat = (lan_rtt + exec_local) * 1e3
    dc_lat = (wan_rtt + exec_dc) * 1e3
    rows.append(("neighbourhood service", "response ms",
                 f"{df_lat:.1f}", f"{dc_lat:.1f}", "DF"))
    data["neighbourhood"] = {"df": df_lat, "dc": dc_lat}

    # ---- tightly coupled: BSP completion ---------------------------------- #
    # fine-grained supersteps: the latency term dominates on the building LAN
    df_t = _bsp_completion(8, supersteps=20000, cycles_per_step=0.02 * _GHZ,
                           rate_hz=3.5e9, sync_latency_s=0.0015)  # building LAN
    dc_t = _bsp_completion(8, supersteps=20000, cycles_per_step=0.02 * _GHZ,
                           rate_hz=3.2e9, sync_latency_s=5e-6)    # intra-rack
    rows.append(("tightly coupled (BSP)", "completion s",
                 f"{df_t:.1f}", f"{dc_t:.1f}", "DC"))
    data["coupled"] = {"df": df_t, "dc": dc_t}

    # ---- storage: useful heat per TB·day ----------------------------------#
    disk_w_per_tb = 1.5   # spinning storage per TB
    cpu_w_per_tb = 0.3    # serving overhead
    heat_per_tb_day = (disk_w_per_tb + cpu_w_per_tb) * 86400 / 3.6e6
    qrad_heat_day = 500 * 86400 / 3.6e6
    rows.append(("storage", "heat kWh per TB·day",
                 f"{heat_per_tb_day:.2f} (vs {qrad_heat_day:.0f} needed/room)",
                 "n/a", "neither (no heat)"))
    data["storage"] = {"heat_per_tb_day": heat_per_tb_day}

    table = Table(["application class", "metric", "df3", "datacenter", "winner"],
                  title="E10 — application suitability (§II-A, §VI)")
    for r in rows:
        table.add_row(*r)
    return ExperimentResult(
        experiment_id="E10",
        title="Application classes on data furnace (§II-A, §VI)",
        text=table.render(),
        data=data,
    )
