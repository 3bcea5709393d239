"""Micro-datacenter baseline (paper §V, Schneider white paper [23]).

Small air-cooled server rooms distributed across the city's districts: edge
requests reach their district's micro-DC over metro fiber (latency comparable
to DF3), cloud requests spill to whichever micro-DC has room.  The two costs
DF3 avoids remain: cooling overhead on every joule, and all heat — IT plus
compressor work — rejected outdoors while homes burn resistive heat.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.hardware.datacenter import Datacenter
from repro.hardware.server import Task
from repro.network.link import Link
from repro.network.lowpower import ZIGBEE, LowPowerLink
from repro.obs import get_obs
from repro.sim.calendar import SimCalendar
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.thermal.building import Building, RoomConfig
from repro.thermal.comfort import ComfortTracker
from repro.thermal.heat_island import HeatIslandLedger
from repro.thermal.weather import Weather, WeatherConfig

__all__ = ["MicroDatacenterBaseline"]


class MicroDatacenterBaseline:
    """One small air-cooled DC per district + resistive home heating."""

    def __init__(
        self,
        n_districts: int = 2,
        nodes_per_micro_dc: int = 2,
        n_rooms: int = 12,
        seed: int = 0,
        start_time: float = 0.0,
        weather: WeatherConfig = WeatherConfig(),
        heater_w: float = 1000.0,
        thermal_tick_s: float = 300.0,
        metro_latency_s: float = 0.004,
        weather_horizon: float = 2 * 365 * 86400.0,
    ):
        if n_districts < 1 or nodes_per_micro_dc < 1:
            raise ValueError("need at least one district and one node")
        self.engine = Engine(start=start_time, **get_obs().engine_hooks())
        self.rngs = RngRegistry(seed)
        self.cal = SimCalendar()
        self.weather = Weather(self.rngs.stream("weather"), weather, horizon=weather_horizon)
        self.ledger = HeatIslandLedger()
        self.comfort = ComfortTracker()
        # micro-DCs are small rooms with packaged cooling: worse overhead than
        # a hyperscale plant (Schneider's own sizing guidance)
        self.micro_dcs: Dict[int, Datacenter] = {
            d: Datacenter(f"mdc-{d}", nodes_per_micro_dc, self.engine,
                          cooling_overhead=0.45, fixed_overhead_w=40.0,
                          ledger=self.ledger)
            for d in range(n_districts)
        }
        self.metro = Link("metro", metro_latency_s, 1e9)
        self.heater_w = float(heater_w)
        self.heater_energy_j = 0.0
        self.setpoint_c = 20.0
        self.completed_edge: List[EdgeRequest] = []
        self.completed_cloud: List[CloudRequest] = []
        # same building radio fabric as DF3: edge pays the first hop
        self._radio: Dict[str, LowPowerLink] = {}
        rooms = [RoomConfig(name=f"room-{i}") for i in range(n_rooms)]
        self.building = Building(rooms, self.weather, t_init_c=18.0)
        self._heater_on = np.zeros(n_rooms, dtype=bool)
        self.engine.add_process("micro-dc-tick", thermal_tick_s, self._tick)

    # ------------------------------------------------------------------ #
    def _tick(self, now: float, dt: float) -> None:
        temps = self.building.temperatures
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
        for dc in self.micro_dcs.values():
            dc.account_heat(dt)

    # ------------------------------------------------------------------ #
    def _district_of(self, source: str) -> int:
        try:
            return int(source.split("/")[0].split("-")[1]) % len(self.micro_dcs)
        except (IndexError, ValueError):
            return 0

    def _execute_on(self, dc: Datacenter, req, sink: List) -> None:
        hop = self.metro.delay(req.input_bytes)
        req.network_delay_s += hop

        def arrive() -> None:
            def done(task: Task, now: float) -> None:
                ret = self.metro.delay(req.output_bytes)
                req.network_delay_s += ret
                self.engine.schedule(ret, lambda: req.mark_completed(self.engine.now))
                sink.append(req)

            req.status = RequestStatus.RUNNING
            req.started_at = self.engine.now
            req.executed_on = dc.name
            dc.submit(Task(req.request_id, req.cycles, req.cores, on_complete=done,
                           metadata={"request": req}))

        self.engine.schedule(hop, arrive)

    def submit_edge(self, req: EdgeRequest) -> None:
        """Edge requests run in their district's micro-DC (radio + metro)."""
        link = self._radio.setdefault(req.source or "?", LowPowerLink(ZIGBEE))
        radio = link.delivery_delay(self.engine.now, int(req.input_bytes))
        req.network_delay_s += radio
        dc = self.micro_dcs[self._district_of(req.source)]
        self.engine.schedule(radio, lambda: self._execute_on(dc, req, self.completed_edge))

    def submit_cloud(self, req: CloudRequest) -> None:
        """Cloud requests go to the emptiest micro-DC."""
        dc = max(self.micro_dcs.values(), key=lambda d: d.free_cores)
        self._execute_on(dc, req, self.completed_cloud)

    def inject(self, requests) -> None:
        """Schedule request arrivals."""
        for req in requests:
            if isinstance(req, EdgeRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_edge(r))
            elif isinstance(req, CloudRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_cloud(r))
            else:
                raise TypeError(f"micro-DC baseline cannot take {type(req).__name__}")

    def run_until(self, t: float) -> None:
        """Advance the baseline world."""
        self.engine.run_until(t)

    # ------------------------------------------------------------------ #
    def edge_deadline_miss_rate(self) -> float:
        """Deadline miss rate of the micro-DC edge flow."""
        done = [r for r in self.completed_edge if r.status is RequestStatus.COMPLETED]
        if not done:
            return 0.0
        return sum(1 for r in done if not r.deadline_met()) / len(done)

    def total_energy_j(self) -> float:
        """All micro-DCs (incl. cooling) + resistive heating."""
        total = self.heater_energy_j
        for dc in self.micro_dcs.values():
            for n in dc.nodes:
                n.sync()
            total += sum(n.energy_j for n in dc.nodes)
        return total
