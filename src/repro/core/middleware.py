"""`DF3Middleware`: one middleware for district heating, edge and DCC.

The paper's thesis (§II-C): "With DF3, we propose to operate distributed cloud
and edge on the same platform.  We also suggest to have a single middleware
both for district heating, edge and DCC."  This class is that middleware,
assembled from the substrates:

* a city (:class:`~repro.network.topology.CityTopology`) of districts, each a
  :class:`~repro.core.cluster.Cluster` of Q.rads — one per room of each
  building — plus optional digital boilers;
* per-cluster schedulers (architecture class 1 or 2) behind edge/DCC gateways;
* an :class:`~repro.core.offloading.Offloader` wired to peer clusters and to
  a classical :class:`~repro.hardware.datacenter.Datacenter`;
* a :class:`~repro.core.regulation.HeatRegulator` per server bound to its
  room, coordinated by a :class:`~repro.core.smartgrid.SmartGridManager`;
* the thermal fabric (buildings + weather) stepped on a fixed tick, with
  comfort and heat-island accounting.

The **filler** mechanism keeps rooms warm when paying work is scarce: the
seasonal/opportunistic application class of Liu et al. (paper ref [6], e.g.
BOINC batches) is modelled as preemptible chunk tasks injected wherever heat
is wanted and cores are idle — evicted instantly when real work arrives.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.collective import CollectiveController
from repro.core.decision import DecisionConfig, DecisionSystem
from repro.core.gateway import DCCGateway, EdgeGateway
from repro.core.offloading import Offloader
from repro.core.regulation import FleetRegulatorBank, HeatRegulator, RegulatorConfig
from repro.core.requests import CloudRequest, EdgeRequest, HeatingRequest
from repro.core.resilience.config import ResilienceConfig
from repro.core.resilience.recovery import RecoveryRuntime
from repro.core.scheduling.base import SaturationPolicy
from repro.core.scheduling.dedicated import DedicatedWorkersScheduler
from repro.core.scheduling.shared import SharedWorkersScheduler
from repro.core.smartgrid import SmartGridManager
from repro.hardware.boiler import STIMERGY_SMALL, DigitalBoiler
from repro.hardware.datacenter import Datacenter
from repro.hardware.qrad import QRAD_SPEC, QRad
from repro.hardware.server import Task
from repro.network.internet import WANLink, WANProfile
from repro.network.link import Link
from repro.network.lowpower import ZIGBEE, LowPowerProtocol
from repro.network.topology import CityTopology
from repro.obs import get_obs
from repro.sim.calendar import SimCalendar
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.thermal.building import Building, RoomConfig, ThermostatSchedule
from repro.thermal.comfort import ComfortTracker
from repro.thermal.fused import FusedCityThermal
from repro.thermal.surrogate import SurrogateConfig, SurrogateController
from repro.thermal.heat_island import HeatIslandLedger
from repro.thermal.hydronics import WaterLoop, WaterLoopConfig
from repro.thermal.rc_model import RoomThermalParams
from repro.thermal.weather import Weather, WeatherConfig

__all__ = ["KERNELS", "MiddlewareConfig", "DF3Middleware", "resolve_kernel"]

_GHZ = 1e9

#: the simulation kernels: the exact one, and the tolerance-budgeted tier
KERNELS = ("vector", "surrogate")


def resolve_kernel(value: Optional[str] = None) -> str:
    """Resolve the simulation kernel: explicit config > env > default.

    ``value`` is :attr:`MiddlewareConfig.kernel`; when None the
    ``REPRO_KERNEL`` environment variable applies (how the CLI's ``--kernel``
    flag reaches pool workers), and the default is ``"vector"``, the one
    exact kernel (DESIGN.md §2.13).  The ``"surrogate"`` tier (DESIGN.md
    §2.18) runs on the same substrate and trades a declared tolerance budget
    (:mod:`repro.thermal.budget`) for district-aggregate speed.
    """
    kernel = value or os.environ.get("REPRO_KERNEL") or "vector"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


@dataclass(frozen=True)
class MiddlewareConfig:
    """Deployment + policy knobs of a DF3 city.

    The defaults describe a small laptop-scale city: 2 districts × 2 buildings
    × 3 rooms, one 500 W Q.rad per room, one 8-node datacenter for vertical
    offloading.
    """

    n_districts: int = 2
    buildings_per_district: int = 2
    rooms_per_building: int = 3
    boilers_per_district: int = 0
    architecture: str = "shared"          # "shared" (class 1) | "dedicated" (class 2)
    dedicated_per_cluster: int = 1        # edge-reserved Q.rads (class 2 only)
    saturation_policy: SaturationPolicy = SaturationPolicy.QUEUE
    context_switch_s: float = 0.0
    dc_nodes: int = 8
    thermal_tick_s: float = 300.0
    enable_filler: bool = True
    filler_chunk_s: float = 300.0
    hybrid_migration: bool = True
    allow_privacy_vertical: bool = False
    regulator: RegulatorConfig = field(default_factory=RegulatorConfig)
    decision: DecisionConfig = field(default_factory=DecisionConfig)
    edge_protocol: LowPowerProtocol = ZIGBEE
    weather: WeatherConfig = field(default_factory=WeatherConfig)
    wan: WANProfile = field(default_factory=WANProfile.national_internet)
    start_time: float = 0.0
    weather_horizon: float = 2 * 365 * 86400.0
    seed: int = 0
    initial_setpoint_c: float = 20.0
    room_thermal: RoomThermalParams = field(default_factory=RoomThermalParams)
    #: arm churn + recovery (None = no resilience machinery at all; runs are
    #: byte-identical to builds without the subsystem)
    resilience: Optional[ResilienceConfig] = None
    #: simulation kernel: "vector" | "surrogate" | None (= ``REPRO_KERNEL``
    #: env or the "vector" default).  Vector is exact; surrogate is
    #: tolerance-budgeted.
    kernel: Optional[str] = None
    #: surrogate-tier knobs (warm-up window, sample size, checkpoint cadence);
    #: only consulted when the resolved kernel is "surrogate"
    surrogate: Optional[SurrogateConfig] = None

    def __post_init__(self) -> None:
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if self.architecture not in ("shared", "dedicated"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "dedicated" and not (
            0 < self.dedicated_per_cluster
            <= self.buildings_per_district * self.rooms_per_building
        ):
            raise ValueError("dedicated pool size out of range")
        if self.thermal_tick_s <= 0 or self.filler_chunk_s <= 0:
            raise ValueError("tick and filler chunk must be > 0")


class DF3Middleware:
    """The single middleware for the three flows.  See module docstring.

    ``obs`` is the :class:`repro.obs.Observability` bundle instrumenting this
    city; it defaults to the process-wide current one (inactive unless the
    CLI or a test installed an active bundle), so uninstrumented construction
    and runs are byte-identical to pre-observability behaviour.
    """

    def __init__(self, config: MiddlewareConfig = MiddlewareConfig(), obs=None):
        self.config = config
        cfg = config
        self.obs = obs if obs is not None else get_obs()
        self.engine = Engine(start=cfg.start_time, **self.obs.engine_hooks())
        #: resolved kernel for this city ("vector" | "surrogate"); the
        #: surrogate tier runs on the vector substrate (bank + fused arrays)
        self.kernel = resolve_kernel(cfg.kernel)
        self.rngs = RngRegistry(cfg.seed)
        self.cal = SimCalendar()
        self.weather = Weather(
            self.rngs.stream("weather"), cfg.weather, horizon=cfg.weather_horizon
        )
        self.topology = CityTopology.build(
            cfg.n_districts, cfg.buildings_per_district, wan=cfg.wan
        )
        self.ledger = HeatIslandLedger()
        self.comfort = ComfortTracker(band_c=1.0)

        self.datacenter: Optional[Datacenter] = None
        if cfg.dc_nodes > 0:
            self.datacenter = Datacenter(
                "dc", cfg.dc_nodes, self.engine, ledger=self.ledger
            )
        wan_link = WANLink(cfg.wan, rng=self.rngs.stream("wan"))
        self.offloader = Offloader(
            self.engine,
            datacenter=self.datacenter,
            wan=wan_link if self.datacenter else None,
            allow_privacy_vertical=cfg.allow_privacy_vertical,
            obs=self.obs,
        )

        # --- districts: buildings, rooms, Q.rads, regulators, clusters ----
        self.buildings: Dict[str, Building] = {}
        self.clusters: Dict[int, Cluster] = {}
        self.schedulers: Dict[int, object] = {}
        self.edge_gateways: Dict[int, EdgeGateway] = {}
        self.dcc_gateways: Dict[int, DCCGateway] = {}
        self.regulators: Dict[str, HeatRegulator] = {}   # room name → regulator
        self.collectives: Dict[str, CollectiveController] = {}  # building → ctrl
        self._source_district: Dict[str, int] = {}       # request source → district
        self._room_server: Dict[str, QRad] = {}
        self.boilers: List[DigitalBoiler] = []
        self.smartgrid = SmartGridManager(self.engine)
        self._filler_ids = itertools.count()
        self.filler_completed = 0

        bank = FleetRegulatorBank()
        self._bank = bank
        #: bank index → (qrad, district)
        self._bank_entries: List[Tuple[QRad, int]] = []
        self._district_qrad_idx: Dict[int, List[int]] = {}
        self._district_boilers: Dict[int, List[DigitalBoiler]] = {}
        #: (bank version, {qrad name → heat wanted}) for _qrad_wanted_map
        self._wanted_cache: Tuple[int, Dict[str, bool]] = (-1, {})
        self._bank_entry_names: Optional[Tuple[str, ...]] = None

        for d in range(cfg.n_districts):
            cluster = Cluster(ClusterConfig(name=f"district-{d}", district=d))
            self._district_qrad_idx[d] = []
            self._district_boilers[d] = []
            dedicated_left = (
                cfg.dedicated_per_cluster if cfg.architecture == "dedicated" else 0
            )
            for b in range(cfg.buildings_per_district):
                bname = f"district-{d}/building-{b}"
                rooms = [
                    RoomConfig(
                        name=f"{bname}/room-{r}",
                        thermal=cfg.room_thermal,
                        schedule=ThermostatSchedule(),
                    )
                    for r in range(cfg.rooms_per_building)
                ]
                building = Building(rooms, self.weather, t_init_c=18.0)
                self.buildings[bname] = building
                building_regs = []
                for r, room in enumerate(building.rooms):
                    qrad = QRad(f"{bname}/qrad-{r}", self.engine, QRAD_SPEC)
                    room.attach(qrad)
                    reg = HeatRegulator(cfg.regulator)
                    reg.set_target(cfg.initial_setpoint_c)
                    if self.obs.active:
                        reg.observer = self._regulator_observer(room.name, d)
                    self.regulators[room.name] = reg
                    building_regs.append(reg)
                    self._room_server[room.name] = qrad
                    self.smartgrid.register(qrad, reg)
                    self._district_qrad_idx[d].append(bank.attach(reg))
                    self._bank_entries.append((qrad, d))
                    cluster.add_worker(qrad, dedicated_edge=dedicated_left > 0)
                    dedicated_left -= 1
                self.collectives[bname] = CollectiveController(building_regs)
            for bi in range(cfg.boilers_per_district):
                loop = WaterLoop(WaterLoopConfig(), t_init_c=40.0)
                boiler = DigitalBoiler(
                    f"district-{d}/boiler-{bi}", self.engine, loop,
                    spec=STIMERGY_SMALL, ledger=self.ledger,
                )
                self.boilers.append(boiler)
                self._district_boilers[d].append(boiler)
                self.smartgrid.register_boiler(boiler)
                cluster.add_worker(boiler)
            self.clusters[d] = cluster

            decision = (
                DecisionSystem(cfg.decision)
                if cfg.saturation_policy is SaturationPolicy.DECISION
                else None
            )
            sched_kwargs = dict(
                cluster=cluster,
                engine=self.engine,
                policy=cfg.saturation_policy,
                offloader=self.offloader,
                decision_system=decision,
                worker_priority=self._worker_priority,
                obs=self.obs,
            )
            if cfg.architecture == "shared":
                sched = SharedWorkersScheduler(
                    context_switch_s=cfg.context_switch_s, **sched_kwargs
                )
            else:
                sched = DedicatedWorkersScheduler(**sched_kwargs)
            self.schedulers[d] = sched
            self.edge_gateways[d] = EdgeGateway(
                sched, self.engine, protocol=cfg.edge_protocol,
                rng=self.rngs.stream(f"edge-net-{d}"), obs=self.obs,
            )
            self.dcc_gateways[d] = DCCGateway(sched, self.engine, wan_link,
                                              obs=self.obs)

        for d, sched in self.schedulers.items():
            self.offloader.register_peer(
                f"district-{d}", sched, Link(f"metro-{d}", 0.004, 1e9)
            )

        # fleet membership is fixed after construction (churn fails/repairs
        # servers in place); cache the flat list so the hot aggregate helpers
        # stop rebuilding it on every call
        self._all_servers: List = [
            w for c in self.clusters.values() for w in c.workers
        ]

        bank.freeze()
        self.smartgrid.attach_bank(bank)
        #: city-fused thermal stepping: every building is built uncoupled,
        #: with one weather and ``rooms_per_building`` rooms, so the whole
        #: city always fuses into one (buildings × rooms) grid
        self._fused_thermal = FusedCityThermal(list(self.buildings.values()))
        # the three tick stages share one fused heap event per period: one
        # "df3-tick" dispatch, with the stages timed under their own labels
        self.engine.add_process(
            "df3-regulation", cfg.thermal_tick_s, self._tick_regulation,
            group="df3-tick")
        self.engine.add_process(
            "df3-workload", cfg.thermal_tick_s, self._tick_workload,
            group="df3-tick")
        self.engine.add_process(
            "df3-thermal", cfg.thermal_tick_s, self._tick_thermal,
            group="df3-tick")

        #: reduced-order tier (kernel == "surrogate" only); constructed after
        #: the fused substrate so it can validate fleet homogeneity
        self.surrogate: Optional[SurrogateController] = None
        if self.kernel == "surrogate":
            self.surrogate = SurrogateController(self, cfg.surrogate)

        self.resilience: Optional[RecoveryRuntime] = None
        if cfg.resilience is not None:
            self.resilience = RecoveryRuntime(self, cfg.resilience)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _regulator_observer(self, room: str, district: int):
        """Per-room hook emitting ``regulator`` records + power gauges.

        Heat-wanted transitions are the regulator's *actions* (they flip the
        filler/power-off admission flag), so only those become trace records;
        the continuous power fraction lands in a gauge.
        """
        state = {"wanted": None}

        def observe(reg) -> None:
            obs = self.obs
            if not obs.active:
                return
            wanted = reg.heat_wanted
            if wanted is not state["wanted"]:
                state["wanted"] = wanted
                obs.emit(
                    "regulator",
                    "regulator.heat_on" if wanted else "regulator.heat_off",
                    self.engine.now, room=room,
                    power_fraction=round(reg.power_fraction, 6),
                    setpoint_c=reg.setpoint_c,
                )
                obs.counter("regulator_transitions", district=district).inc()
            obs.gauge("regulator_power_fraction", room=room).set(reg.power_fraction)

        return observe

    def _tick_metrics(self, now: float) -> None:
        """Fleet-level gauges + sample records, once per thermal tick.

        The ``sample`` records give the SLO engine and run reports a time
        series of the paper's two service-level quantities (comfort in-band
        fraction, fleet availability) that no request record carries.
        """
        obs = self.obs
        for d, cluster in self.clusters.items():
            obs.gauge("cluster_free_cores", district=d).set(cluster.free_cores())
        for bname, building in self.buildings.items():
            temps = building.temperatures
            obs.gauge("building_mean_temp_c", building=bname).set(
                float(sum(temps)) / len(temps))
        obs.gauge("filler_completed").set(self.filler_completed)
        if not (obs.tracer.enabled and obs.tracer.wants("sample")):
            return
        band = self.comfort.band_c
        in_band = total_rooms = 0
        for bname, building in self.buildings.items():
            temps = building.temperatures
            for room in building.rooms:
                sp = self.regulators[room.name].setpoint_c
                if abs(float(temps[room.index]) - sp) <= band:
                    in_band += 1
                total_rooms += 1
        if total_rooms:
            obs.emit("sample", "comfort.sample", now,
                     in_band=in_band / total_rooms, rooms=total_rooms)
        up = free = cores = 0
        for w in self._all_servers:
            cores += w.n_cores
            if w.enabled and not w.failed:
                up += 1
                free += w.free_cores
        n = len(self._all_servers)
        if n:
            util = {}
            for d in sorted(self.clusters):
                cluster = self.clusters[d]
                total = cluster.total_cores()
                if total:
                    util[cluster.name] = 1.0 - cluster.free_cores() / total
            obs.emit("sample", "fleet.sample", now, up=up / n,
                     free_cores=free, total_cores=cores, util=util)

    # ------------------------------------------------------------------ #
    # placement priority: servers whose room wants heat go first
    # ------------------------------------------------------------------ #
    def _worker_priority(self, server) -> tuple:
        wanted = self._qrad_wanted_map().get(server.name)
        if wanted is None:  # boiler: wants heat while the tank has headroom
            wanted = any(
                b.name == server.name and b.heat_demand_w() > 0
                for b in self.boilers
            )
        return (0 if wanted else 1, -server.free_cores)

    def _qrad_wanted_map(self) -> Dict[str, bool]:
        """Per-Q.rad heat-wanted flags, cached against the bank's version.

        Placement priorities query the flag for every candidate worker of
        every placement; the underlying fractions only change when the bank
        mutates (PI pass, demand-response scaling), so one dict rebuild per
        version replaces thousands of per-query bank reads.  Values equal
        :attr:`HeatRegulator.heat_wanted` by construction.
        """
        bank = self._bank
        if self._wanted_cache[0] != bank.version:
            names = self._bank_entry_names
            if names is None:
                names = self._bank_entry_names = tuple(
                    e[0].name for e in self._bank_entries)
            self._wanted_cache = (
                bank.version,
                dict(zip(names, bank.heat_wanted_mask().tolist())),
            )
        return self._wanted_cache[1]

    # ------------------------------------------------------------------ #
    # the periodic tick: regulation, migration, filler, thermal stepping
    # ------------------------------------------------------------------ #
    def _tick_regulation(self, now: float, dt: float) -> None:
        """Stage 1+2: PI bank step + fleet coordination.

        Collective controllers run first, building by building; they only
        write setpoints (through the attached regulators into the bank
        arrays), so the one bank pass that follows observes their targets
        and fires the regulator observers in attach order.
        """
        sur = self.surrogate
        if sur is not None and sur.begin_tick(now):
            sur.tick_regulation(now, dt)
            self.smartgrid.tick(now, dt)
            return
        temps_parts = []
        for bname, building in self.buildings.items():
            temps = building.temperatures
            ctrl = self.collectives.get(bname)
            if ctrl is not None and ctrl.active:
                ctrl.update(temps)
            temps_parts.append(temps)
        self._bank.update_all(dt, np.concatenate(temps_parts))
        self.smartgrid.tick(now, dt)

    def _tick_workload(self, now: float, dt: float) -> None:
        """Stage 3+4: hybrid migration off cold servers, then filler."""
        if self.surrogate is not None and self.surrogate.switched:
            # drain + power off newly aggregated districts; quiesced servers
            # report 0 free cores, so migration/filler skip them naturally
            self.surrogate.quiesce_pending()
        if self.config.hybrid_migration:
            self._migrate_cold_servers()
        if self.config.enable_filler:
            self._inject_filler()

    def _tick_thermal(self, now: float, dt: float) -> None:
        """Stage 5+6: one fused RC step for the whole city, then metrics.

        Comfort is sampled once per building (one row of the fused grid)
        and the useful-heat ledger is walked in room order, so the
        accumulators fold in a fixed order.
        """
        sur = self.surrogate
        if sur is not None and sur.switched:
            sur.tick_thermal(now, dt)
        else:
            fused = self._fused_thermal
            p_heat = fused.step(now, dt)
            if sur is not None:
                sur.record_warmup(p_heat)
            nb = len(fused.buildings)
            self.comfort.add_rows(dt, fused.t_air.reshape(nb, -1),
                                  self._bank.setpoints.reshape(nb, -1),
                                  month=self.cal.month(now))
            wanted = self._bank.heat_wanted_mask().tolist()
            add_useful = self.ledger.add_useful_heat
            for p, w in zip(p_heat, wanted):
                if p > 0 and w:
                    add_useful(p * dt)
        hod = self.cal.hour_of_day(now)
        for boiler in self.boilers:
            boiler.thermal_step(now, dt, hod)
        if self.datacenter is not None:
            self.datacenter.account_heat(dt)
        if self.obs.active:
            self._tick_metrics(now)

    def _migrate_cold_servers(self) -> None:
        """Move preemptible cloud work off servers whose room rejects heat.

        The Qarnot hybrid infrastructure (§III-A): boards turn off when no
        heat is requested, and pending Internet work continues in the
        datacenter.  Only the cold, non-idle Q.rads are visited, in bank
        order (district-major), so preemptions and vertical offloads happen
        in a fixed sequence.
        """
        entries = self._bank_entries
        for i in np.flatnonzero(~self._bank.heat_wanted_mask()).tolist():
            server, d = entries[i]
            if server.idle:
                continue
            sched = self.schedulers[d]
            for task in list(server.running_tasks):
                kind = task.metadata.get("kind")
                if kind == "filler":
                    server.preempt(task.task_id)
                elif kind == "cloud" and task.metadata["request"].preemptible:
                    t = server.preempt(task.task_id)
                    creq = t.metadata["request"]
                    creq.cycles = max(t.remaining_cycles, 1.0)
                    if self.offloader.can_vertical(creq):
                        self.offloader.vertical(creq, sched)
                        sched.stats.cloud_offloaded_vertical += 1
                    else:
                        sched.cloud_queue.push_front(creq)

    def _inject_filler(self) -> None:
        """Fill every free core of each heat-wanted server with one-core chunks.

        One batched submit per server: a powered-on server with ``f`` free
        cores accepts exactly ``f`` chunks, and :meth:`ComputeServer.
        submit_batch` reserves the sequence numbers chunk-by-chunk submits
        would have burned, so the surviving completion event is the same.
        """
        chunk_s = self.config.filler_chunk_s
        obs_active = self.obs.active
        for server in self.smartgrid.heat_wanted_servers():
            free = server.free_cores
            if free <= 0:
                continue
            work = (
                server.core_rate_cycles_per_s() or server.spec.ladder.top.freq_ghz * _GHZ
            ) * chunk_s
            mk = Task.prevalidated
            done = self._filler_chunk_done
            ids = self._filler_ids
            tasks = [
                mk(f"filler-{next(ids)}", work, 1, done, {"kind": "filler"})
                for _ in range(free)
            ]
            accepted = server.submit_batch(tasks)
            if obs_active and accepted:
                self.obs.counter("filler_injected").inc(accepted)

    def _filler_chunk_done(self, task: Task, now: float) -> None:
        self.filler_completed += 1

    # ------------------------------------------------------------------ #
    # the three flows
    # ------------------------------------------------------------------ #
    def _district_of(self, source: str) -> int:
        d = self._source_district.get(source)
        if d is None:
            try:
                d = int(source.split("/")[0].split("-")[1])
            except (IndexError, ValueError):
                raise ValueError(
                    f"cannot infer district from source {source!r}") from None
            self._source_district[source] = d
        return d

    def submit_heating(self, req: HeatingRequest) -> None:
        """First flow: update comfort targets of the rooms in scope.

        A collective request covering *all* rooms of one building activates
        that building's mean-temperature controller (§II-C); individual
        requests set single regulators and release collective control there.
        """
        for room in req.rooms:
            if room not in self.regulators:
                raise KeyError(f"unknown room {room!r}")
        if self.obs.active:
            self.obs.emit("regulator", "regulator.set_target", self.engine.now,
                          id=req.request_id, rooms=list(req.rooms),
                          target_c=req.target_temp_c, collective=req.collective)
            self.obs.counter("requests_admitted", flow="heating").inc()
        if req.collective:
            building = req.rooms[0].rsplit("/", 1)[0]
            ctrl = self.collectives.get(building)
            if ctrl is not None and building in self.buildings:
                rooms_of_building = {r.name for r in self.buildings[building].rooms}
                if set(req.rooms) == rooms_of_building:
                    ctrl.set_mean_target(req.target_temp_c)
                    return
        for room in req.rooms:
            self.regulators[room].set_target(req.target_temp_c)
            building = room.rsplit("/", 1)[0]
            ctrl = self.collectives.get(building)
            if ctrl is not None:
                ctrl.clear()

    def submit_cloud(self, req: CloudRequest, district: Optional[int] = None) -> None:
        """Second flow: Internet request through a district's DCC gateway.

        Routed to the district whose cluster currently has the most
        heat-authorised free capacity (the smart-grid goal: compute lands
        where heat is requested); falls back to round-robin on ties.
        """
        if district is None:
            district = self._route_cloud()
        if self.surrogate is not None:
            self.surrogate.ensure_live(district, reason="cloud")
        self.dcc_gateways[district].submit(req)

    def _route_cloud(self) -> int:
        """The district with the most heat-authorised free cores.

        Integer core sums off the bank mask (plus boilers with tank
        headroom); the first district wins ties (``>`` keeps the earliest
        maximum).
        """
        wanted = self._bank.heat_wanted_mask().tolist()
        entries = self._bank_entries
        best_d = -1
        best = -1
        for d in self.clusters:
            total = 0
            for i in self._district_qrad_idx[d]:
                if wanted[i]:
                    total += entries[i][0].free_cores
            for b in self._district_boilers[d]:
                if b.heat_demand_w() > 0:
                    total += b.free_cores
            if total > best:
                best_d, best = d, total
        return best_d

    def submit_edge(self, req: EdgeRequest, direct_target: Optional[str] = None) -> None:
        """Third flow: local request through its district's edge gateway."""
        d = self._district_of(req.source)
        if d not in self.edge_gateways:
            raise ValueError(f"no such district {d}")
        if self.surrogate is not None:
            self.surrogate.ensure_live(d, reason="edge")
        target = None
        if direct_target is not None:
            target = self.clusters[d].worker(direct_target)
        if (target is None and self.resilience is not None
                and self.resilience.maybe_clone(req, d)):
            return  # submitted as a clone pair (policy engine said yes)
        self.edge_gateways[d].submit(req, direct_target=target)

    # ------------------------------------------------------------------ #
    # experiment helpers
    # ------------------------------------------------------------------ #
    def inject(self, requests, direct_targets: Optional[Dict[str, str]] = None) -> None:
        """Schedule a batch of requests at their arrival times."""
        for req in requests:
            if isinstance(req, HeatingRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_heating(r),
                                        label="inject:heating")
            elif isinstance(req, EdgeRequest):
                tgt = (direct_targets or {}).get(req.request_id)
                self.engine.schedule_at(
                    req.time, lambda r=req, t=tgt: self.submit_edge(r, direct_target=t),
                    label="inject:edge",
                )
            elif isinstance(req, CloudRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_cloud(r),
                                        label="inject:cloud")
            else:
                raise TypeError(f"cannot inject {type(req).__name__}")

    def run_until(self, t: float) -> None:
        """Advance the whole city to simulated time ``t``."""
        self.engine.run_until(t)

    # ------------------------------------------------------------------ #
    # aggregated results
    # ------------------------------------------------------------------ #
    @property
    def all_servers(self) -> List:
        """Every DF server in the city (Q.rads + boilers).

        The list is cached at construction — cluster membership never changes
        afterwards (churn fails and repairs servers in place) — and a copy is
        returned so callers may mutate their snapshot freely.
        """
        return list(self._all_servers)

    def completed_edge(self) -> List[EdgeRequest]:
        """Edge requests completed anywhere in the city."""
        return [r for s in self.schedulers.values() for r in s.completed_edge]

    def completed_cloud(self) -> List[CloudRequest]:
        """Cloud requests completed anywhere (including vertical offloads)."""
        return [r for s in self.schedulers.values() for r in s.completed_cloud]

    def expired_edge(self) -> List[EdgeRequest]:
        """Edge requests dropped past their deadline."""
        return [r for s in self.schedulers.values() for r in s.expired_edge]

    def edge_deadline_miss_rate(self) -> float:
        """City-wide edge deadline miss rate (expired count as misses)."""
        done = self.completed_edge()
        expired = self.expired_edge()
        n = len(done) + len(expired)
        if n == 0:
            return 0.0
        misses = sum(1 for r in done if not r.deadline_met()) + len(expired)
        return misses / n

    def fleet_energy_j(self) -> float:
        """Electrical energy of all DF servers so far (J).

        Under the surrogate kernel, quiesced districts draw no metered power;
        their calibrated modelled energy is added so the fleet total stays a
        like-for-like aggregate (within the declared budget).
        """
        servers = self._all_servers
        for s in servers:
            s.sync()
        total = sum(s.energy_j for s in servers)
        if self.surrogate is not None:
            total += self.surrogate.modeled_energy_j
        return total

    def total_cycles_executed(self) -> float:
        """Cycles executed by the DF fleet so far."""
        servers = self._all_servers
        for s in servers:
            s.sync()
        return sum(s.cycles_executed for s in servers)

    def audit_isolation(self):
        """Audit executed placements against the natural segmentation policy.

        Architecture class 2 implies the §III-B isolated policy (edge VPN +
        DCC net per the dedication split); class 1 implies the flat policy.
        Returns the list of :class:`~repro.network.segmentation.Violation`.
        """
        from repro.network.segmentation import IsolationAuditor, SegmentationPolicy

        shared = self.config.architecture == "shared"
        policy = SegmentationPolicy.flat() if shared else SegmentationPolicy.isolated()
        segment_of = {}
        for cluster in self.clusters.values():
            segment_of.update(
                IsolationAuditor.segments_for_cluster(cluster, shared=shared)
            )
        auditor = IsolationAuditor(policy, segment_of)
        return auditor.audit(self.completed_edge() + self.completed_cloud())
