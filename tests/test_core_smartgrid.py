"""Tests for the smart-grid manager."""

import pytest

from repro.core.regulation import FleetRegulatorBank, HeatRegulator, RegulatorConfig
from repro.core.smartgrid import SmartGridManager
from repro.hardware.boiler import STIMERGY_SMALL, DigitalBoiler
from repro.hardware.qrad import QRad
from repro.hardware.server import Task
from repro.sim.calendar import DAY
from repro.sim.engine import Engine
from repro.thermal.hydronics import WaterLoop, WaterLoopConfig


def frozen_bank(regulators=()):
    """A frozen bank holding ``regulators`` in order, as the middleware builds."""
    bank = FleetRegulatorBank()
    for r in regulators:
        bank.attach(r)
    bank.freeze()
    return bank


def fleet(engine, n=3):
    sg = SmartGridManager(engine)
    pairs = []
    for i in range(n):
        q = QRad(f"q{i}", engine)
        r = HeatRegulator()
        r.set_target(20.0)
        sg.register(q, r)
        pairs.append((q, r))
    sg.attach_bank(frozen_bank(r for _, r in pairs))
    return sg, pairs


def test_authorized_power_follows_demand():
    eng = Engine()
    sg, pairs = fleet(eng)
    for _, r in pairs:
        r.update(300.0, room_temp_c=15.0)  # cold: full demand
    assert sg.authorized_power_w() == pytest.approx(3 * 500.0)
    for _, r in pairs:
        r.update(300.0, room_temp_c=25.0)
        r.reset()
    assert sg.authorized_power_w() == 0.0


def test_available_cores_tracks_heat_wanted():
    eng = Engine()
    sg, pairs = fleet(eng)
    pairs[0][1].update(300.0, 15.0)   # wants heat
    pairs[1][1].update(300.0, 25.0)   # doesn't
    pairs[2][1].update(300.0, 15.0)
    assert sg.available_cores() == 2 * 16
    assert len(sg.heat_wanted_servers()) == 2
    assert sg.fleet_size == 3


def test_boiler_counts_when_tank_has_headroom():
    eng = Engine()
    sg = SmartGridManager(eng)
    loop = WaterLoop(WaterLoopConfig(), t_init_c=40.0)  # cold tank
    b = DigitalBoiler("b0", eng, loop, spec=STIMERGY_SMALL)
    sg.register_boiler(b)
    sg.attach_bank(frozen_bank())     # no heater fleet
    assert sg.available_cores() == 40
    assert sg.authorized_power_w() > 0
    # full tank: headroom tiny
    loop.t_tank = loop.config.t_max_c
    assert sg.available_cores() == 0


def test_grid_cap_scales_regulators():
    eng = Engine()
    sg, pairs = fleet(eng, n=2)
    for _, r in pairs:
        r.update(300.0, 15.0)  # both at 1.0
    sg.set_grid_cap(500.0)  # half of the 1000 W demand
    sg.tick(0.0, 300.0)
    assert sg.authorized_power_w() == pytest.approx(500.0)
    assert sg.curtailment_events == 1
    sg.set_grid_cap(None)
    with pytest.raises(ValueError):
        sg.set_grid_cap(-1.0)


def test_tick_accumulates_monthly_capacity():
    eng = Engine()
    sg, pairs = fleet(eng, n=1)
    pairs[0][1].update(300.0, 15.0)
    sg.tick(5 * DAY, 3600.0)          # January
    sg.tick(200 * DAY, 3600.0)        # July (same demand here, but logged separately)
    caps = sg.monthly_capacity_core_hours()
    assert caps[1] == pytest.approx(16.0)
    assert caps[7] == pytest.approx(16.0)


def test_heat_match_error():
    eng = Engine()
    sg, pairs = fleet(eng, n=1)
    q, r = pairs[0]
    r.update(300.0, 19.9)  # tiny demand
    sg.tick(0.0, 300.0)
    # server idles at 25 W but demand is small fraction of 500 W
    err = sg.heat_match_error()
    assert err >= 0.0
    r.reset()
    r.update(300.0, 25.0)
    q.sync()
    if q.enabled and not q.running_tasks:
        q.power_off()
    assert sg.heat_match_error() == 0.0  # no demand, no draw


def test_tick_actuates_like_per_server_apply():
    """``tick``'s fleet-wide actuation equals calling the detached
    ``HeatRegulator.apply_to_server`` on every (server, regulator) pair."""
    eng_a, eng_b = Engine(), Engine()
    sg, pairs = fleet(eng_a, n=6)
    ref = [(QRad(f"r{i}", eng_b), HeatRegulator()) for i in range(6)]
    temps = [12.0, 19.6, 19.9, 21.0, 25.0, 17.0]
    for (_, r), (_, rr), t in zip(pairs, ref, temps):
        rr.set_target(20.0)
        r.update(300.0, t)
        rr.update(300.0, t)
    pairs[3][0].submit(Task("busy", 1e12, cores=2))   # busy cold server stays on
    ref[3][0].submit(Task("busy", 1e12, cores=2))
    sg.tick(0.0, 300.0)
    for q, rr in ref:
        rr.apply_to_server(q)
    assert [(q.enabled, q.freq_index) for q, _ in pairs] == \
        [(q.enabled, q.freq_index) for q, _ in ref]
    assert len({(q.enabled, q.freq_index) for q, _ in ref}) > 2
