"""A3 (extension) — the crypto-heater: mining as district heat (§II-B1, §IV).

The Qarnot QC-1 heats a room with two mining GPUs.  We run one through a cold
three-day window under its heat regulator, with a
:class:`~repro.workloads.mining.MiningController` keeping the GPUs busy
whenever heat is wanted, and compare comfort + operator economics against a
plain (non-revenue) electric heater in the same room.
"""

from __future__ import annotations

from repro.core.regulation import HeatRegulator, RegulatorConfig
from repro.experiments.common import ExperimentResult, mid_month_start
from repro.hardware.qrad import CryptoHeater
from repro.metrics.report import Table
from repro.obs import get_obs
from repro.sim.calendar import DAY
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.thermal.comfort import ComfortTracker
from repro.thermal.rc_model import RCNetwork, RoomThermalParams
from repro.thermal.weather import Weather
from repro.workloads.mining import MiningController, MiningEconomics

__all__ = ["run"]


def run(days: float = 3.0, seed: int = 67) -> ExperimentResult:
    """A QC-1 heats a January room by mining; economics vs a plain heater."""
    t0 = mid_month_start(1)
    engine = Engine(start=t0, **get_obs().engine_hooks())
    weather = Weather(RngRegistry(seed).stream("weather"))
    room = RCNetwork([RoomThermalParams()], t_init_c=17.0)
    heater = CryptoHeater("qc1", engine)
    reg = HeatRegulator(RegulatorConfig())
    reg.set_target(20.0)
    miner = MiningController(heater, MiningEconomics(), chunk_s=600.0)
    comfort = ComfortTracker(band_c=1.0)

    def tick(now: float, dt: float) -> None:
        temp = float(room.t_air[0])
        reg.update(dt, temp)
        reg.apply_to_server(heater)
        miner.tick(reg.heat_wanted)
        heater.sync()
        room.step(dt, t_out=weather.outdoor_temperature(now),
                  p_heat=heater.heat_output_w())
        comfort.add(dt, room.t_air, reg.setpoint_c)

    engine.add_process("crypto-room", 300.0, tick)
    engine.run_until(t0 + days * DAY)

    stats = comfort.result()
    revenue = miner.revenue_eur()
    cost = miner.electricity_cost_eur()
    plain_cost = cost  # a resistive heater draws the same energy for the same heat

    table = Table(["quantity", "crypto-heater", "plain electric heater"],
                  title=f"A3 — QC-1 mining as space heating ({days:.0f} cold days)")
    table.add_row("comfort in band", f"{stats.time_in_band:.0%}", f"{stats.time_in_band:.0%}")
    table.add_row("room RMSE (°C)", round(stats.rmse_c, 2), round(stats.rmse_c, 2))
    table.add_row("electricity cost (€)", round(cost, 2), round(plain_cost, 2))
    table.add_row("mining revenue (€)", round(revenue, 2), 0.0)
    table.add_row("net heating cost (€)", round(cost - revenue, 2), round(plain_cost, 2))

    return ExperimentResult(
        experiment_id="A3",
        title="Crypto-heater economics (§II-B1, §IV)",
        text=table.render(),
        data={
            "comfort_in_band": stats.time_in_band,
            "rmse_c": stats.rmse_c,
            "revenue_eur": revenue,
            "electricity_eur": cost,
            "net_cost_eur": cost - revenue,
            "hashes": miner.hashes,
        },
    )
