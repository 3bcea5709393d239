"""The status-quo baseline: remote cloud + resistive home heating.

Every edge and cloud request crosses the WAN to one air-cooled datacenter.
Homes are heated by plain electric heaters under a bang-bang thermostat —
electricity turns into heat with no computation attached, which is exactly
the waste the data-furnace model monetises.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.hardware.datacenter import Datacenter
from repro.hardware.server import Task
from repro.network.internet import WANLink, WANProfile
from repro.network.lowpower import ZIGBEE, LowPowerLink
from repro.obs import get_obs
from repro.sim.calendar import SimCalendar
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.thermal.building import Building, RoomConfig
from repro.thermal.comfort import ComfortTracker
from repro.thermal.heat_island import HeatIslandLedger
from repro.thermal.weather import Weather, WeatherConfig

__all__ = ["CloudOnlyBaseline"]


class CloudOnlyBaseline:
    """All compute remote, all heat resistive.

    Parameters mirror the DF3 middleware's city shape so E9 compares equals:
    same number of rooms (each with a 1 kW resistive heater), same weather,
    same request streams.
    """

    def __init__(
        self,
        n_rooms: int = 12,
        dc_nodes: int = 8,
        seed: int = 0,
        start_time: float = 0.0,
        wan: WANProfile = WANProfile.continental_internet(),
        weather: WeatherConfig = WeatherConfig(),
        heater_w: float = 1000.0,
        thermal_tick_s: float = 300.0,
        weather_horizon: float = 2 * 365 * 86400.0,
    ):
        if n_rooms < 1:
            raise ValueError("need at least one room")
        self.engine = Engine(start=start_time, **get_obs().engine_hooks())
        self.rngs = RngRegistry(seed)
        self.cal = SimCalendar()
        self.weather = Weather(self.rngs.stream("weather"), weather, horizon=weather_horizon)
        self.ledger = HeatIslandLedger()
        self.comfort = ComfortTracker()
        self.datacenter = Datacenter("dc", dc_nodes, self.engine, ledger=self.ledger)
        self.wan = WANLink(wan, rng=self.rngs.stream("wan"))
        self.heater_w = float(heater_w)
        self.heater_energy_j = 0.0
        self.setpoint_c = 20.0
        self.completed_edge: List[EdgeRequest] = []
        self.completed_cloud: List[CloudRequest] = []
        # edge devices still sit on the building's low-power fabric: the
        # radio first hop is paid before the WAN (same access network as DF3)
        self._radio: Dict[str, LowPowerLink] = {}
        rooms = [RoomConfig(name=f"room-{i}") for i in range(n_rooms)]
        self.building = Building(rooms, self.weather, t_init_c=18.0)
        self._heater_on = np.zeros(n_rooms, dtype=bool)
        self.engine.add_process("cloud-only-tick", thermal_tick_s, self._tick)

    # ------------------------------------------------------------------ #
    def _tick(self, now: float, dt: float) -> None:
        temps = self.building.temperatures
        # bang-bang thermostat with 0.5 °C hysteresis
        self._heater_on = np.where(
            temps < self.setpoint_c - 0.5, True,
            np.where(temps > self.setpoint_c + 0.5, False, self._heater_on),
        )
        for room, on in zip(self.building.rooms, self._heater_on):
            room.aux_heat_w = self.heater_w if on else 0.0
        self.heater_energy_j += float(np.sum(self._heater_on)) * self.heater_w * dt
        self.building.step(now, dt)
        self.comfort.add(dt, self.building.temperatures, self.setpoint_c,
                         month=self.cal.month(now))
        self.datacenter.account_heat(dt)

    # ------------------------------------------------------------------ #
    def _remote_execute(self, req, sink: List) -> None:
        uplink = self.wan.delay(req.input_bytes)
        req.network_delay_s += uplink

        def arrive() -> None:
            def done(task: Task, now: float) -> None:
                ret = self.wan.delay(req.output_bytes)
                req.network_delay_s += ret
                self.engine.schedule(ret, lambda: req.mark_completed(self.engine.now))
                sink.append(req)

            req.status = RequestStatus.RUNNING
            req.started_at = self.engine.now
            req.executed_on = "dc"
            self.datacenter.submit(
                Task(req.request_id, req.cycles, req.cores, on_complete=done,
                     metadata={"request": req})
            )

        self.engine.schedule(uplink, arrive)

    def submit_edge(self, req: EdgeRequest) -> None:
        """Edge requests have nowhere local to run: radio hop, then the WAN."""
        link = self._radio.setdefault(req.source or "?", LowPowerLink(ZIGBEE))
        radio = link.delivery_delay(self.engine.now, int(req.input_bytes))
        req.network_delay_s += radio
        self.engine.schedule(radio, lambda: self._remote_execute(req, self.completed_edge))

    def submit_cloud(self, req: CloudRequest) -> None:
        """Cloud requests go to the datacenter as usual."""
        self._remote_execute(req, self.completed_cloud)

    def inject(self, requests) -> None:
        """Schedule request arrivals (edge/cloud only — no heating flow here)."""
        for req in requests:
            if isinstance(req, EdgeRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_edge(r))
            elif isinstance(req, CloudRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_cloud(r))
            else:
                raise TypeError(f"cloud-only baseline cannot take {type(req).__name__}")

    def run_until(self, t: float) -> None:
        """Advance the baseline world."""
        self.engine.run_until(t)

    # ------------------------------------------------------------------ #
    def edge_deadline_miss_rate(self) -> float:
        """Deadline miss rate of the remotely executed edge flow."""
        done = [r for r in self.completed_edge if r.status is RequestStatus.COMPLETED]
        if not done:
            return 0.0
        return sum(1 for r in done if not r.deadline_met()) / len(done)

    def total_energy_j(self) -> float:
        """Datacenter (incl. cooling) + resistive heating energy."""
        for n in self.datacenter.nodes:
            n.sync()
        return sum(n.energy_j for n in self.datacenter.nodes) + self.heater_energy_j
