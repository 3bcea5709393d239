"""E6 — the DVFS heat regulator: does energy track heat demand? (§III-B)

"The heat regulator implements a DVFS based technique ... to guarantee that
the energy consumed corresponds to the heat demand."  Three controllers drive
the same room + Q.rad + compute-load plant through a cold week with a step
setpoint change:

* **regulated** — the PI + DVFS regulator (the paper's proposal);
* **bang-bang** — on/off at full frequency (no DVFS);
* **uncontrolled** — compute load dictates heat (the failure mode the
  regulator exists to prevent: full-speed filler whenever work exists).

Reported: temperature RMSE and overshoot, plus a PI-gain ablation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.regulation import HeatRegulator, RegulatorConfig
from repro.experiments.common import ExperimentResult
from repro.hardware.qrad import QRAD_SPEC
from repro.metrics.report import Table
from repro.sim.calendar import DAY
from repro.thermal.comfort import ComfortTracker
from repro.thermal.rc_model import RCNetwork, RoomThermalParams

__all__ = ["run"]


def _simulate(controller: str, cfg: RegulatorConfig, days: float = 3.0,
              t_out: float = 2.0, tick: float = 300.0) -> Dict[str, float]:
    """One room, one 500 W Q.rad envelope, a step setpoint at mid-run."""
    net = RCNetwork([RoomThermalParams()], t_init_c=17.0)
    reg = HeatRegulator(cfg)
    reg.set_target(19.0)
    tracker = ComfortTracker(band_c=0.5)
    ladder = QRAD_SPEC.ladder
    p_max, p_idle = QRAD_SPEC.p_max_w, QRAD_SPEC.p_idle_w
    heater_on = False
    n = int(days * DAY / tick)
    powers = np.empty(n)
    for i in range(n):
        t = i * tick
        if t >= days * DAY / 2:
            reg.set_target(21.0)  # the step change
        temp = float(net.t_air[0])
        if controller == "regulated":
            u = reg.update(tick, temp)
            idx = ladder.index_for_power_budget(max(u, 0.0))
            p = 0.0 if not reg.heat_wanted else (
                p_idle + (p_max - p_idle) * ladder.power_scale(idx)
            )
        elif controller == "bang-bang":
            reg.update(tick, temp)  # track setpoint state only
            if temp < reg.setpoint_c - 0.5:
                heater_on = True
            elif temp > reg.setpoint_c + 0.5:
                heater_on = False
            p = p_max if heater_on else 0.0
        elif controller == "uncontrolled":
            reg.update(tick, temp)
            p = p_max  # compute demand runs the boards flat out, always
        else:
            raise ValueError(f"unknown controller {controller!r}")
        powers[i] = p
        net.step(tick, t_out=t_out, p_heat=p)
        tracker.add(tick, net.t_air, reg.setpoint_c)
    stats = tracker.result()
    return {
        "rmse_c": stats.rmse_c,
        "overheat_dh": stats.overheat_degree_hours,
        "in_band": stats.time_in_band,
        "energy_kwh": float(np.sum(powers) * tick / 3.6e6),
    }


def run() -> ExperimentResult:
    """Controller comparison + PI-gain ablation."""
    default = RegulatorConfig()
    rows: Dict[str, Dict[str, float]] = {
        "regulated (PI+DVFS)": _simulate("regulated", default),
        "bang-bang (no DVFS)": _simulate("bang-bang", default),
        "uncontrolled (load-driven)": _simulate("uncontrolled", default),
    }
    table = Table(["controller", "rmse_c", "overheat_deg_h", "in_band", "energy_kwh"],
                  title="E6 — heat regulation over a cold 3-day window with a setpoint step")
    for name, r in rows.items():
        table.add_row(name, round(r["rmse_c"], 2), round(r["overheat_dh"], 1),
                      f"{r['in_band']:.0%}", round(r["energy_kwh"], 1))

    # PI-gain ablation (the DESIGN.md-called ablation)
    ablation = Table(["kp", "ki", "rmse_c", "in_band"],
                     title="E6b — PI gain ablation")
    abl: Dict[Tuple[float, float], float] = {}
    for kp in (0.2, 0.5, 1.0):
        for ki in (0.1, 0.4):
            r = _simulate("regulated", RegulatorConfig(kp=kp, ki=ki))
            abl[(kp, ki)] = r["rmse_c"]
            ablation.add_row(kp, ki, round(r["rmse_c"], 2), f"{r['in_band']:.0%}")

    return ExperimentResult(
        experiment_id="E6",
        title="DVFS heat regulator (§III-B)",
        text=table.render() + "\n\n" + ablation.render(),
        data={"controllers": rows, "ablation_rmse": {f"{k}": v for k, v in abl.items()}},
    )
