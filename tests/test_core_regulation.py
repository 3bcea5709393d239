"""Tests for the DVFS heat regulator."""

import numpy as np
import pytest

from repro.core.regulation import FleetRegulatorBank, HeatRegulator, RegulatorConfig
from repro.hardware.qrad import QRad
from repro.hardware.server import Task
from repro.sim.engine import Engine


def test_config_validation():
    with pytest.raises(ValueError):
        RegulatorConfig(kp=-1.0)
    with pytest.raises(ValueError):
        RegulatorConfig(integral_limit=0.0)
    with pytest.raises(ValueError):
        RegulatorConfig(off_threshold=2.0)


def test_cold_room_demands_full_power():
    reg = HeatRegulator()
    reg.set_target(21.0)
    u = reg.update(300.0, room_temp_c=15.0)
    assert u == 1.0
    assert reg.heat_wanted


def test_warm_room_demands_nothing():
    reg = HeatRegulator()
    reg.set_target(20.0)
    for _ in range(10):
        u = reg.update(300.0, room_temp_c=24.0)
    assert u == 0.0
    assert not reg.heat_wanted


def test_proportional_band_between():
    reg = HeatRegulator(RegulatorConfig(kp=0.5, ki=0.0))
    reg.set_target(20.0)
    u = reg.update(300.0, room_temp_c=19.0)  # 1 °C error → 0.5
    assert u == pytest.approx(0.5)


def test_integral_accumulates_and_clamps():
    cfg = RegulatorConfig(kp=0.0, ki=1.0, integral_limit=0.5)
    reg = HeatRegulator(cfg)
    reg.set_target(20.0)
    for _ in range(100):
        reg.update(3600.0, room_temp_c=19.0)  # 1 °C·h per step
    assert reg._integral == pytest.approx(0.5)  # clamped
    # anti-windup: warm room unwinds quickly
    for _ in range(100):
        reg.update(3600.0, room_temp_c=25.0)
    assert reg.power_fraction == 0.0


def test_set_target_validation():
    reg = HeatRegulator()
    with pytest.raises(ValueError):
        reg.set_target(40.0)
    with pytest.raises(ValueError):
        reg.update(0.0, 20.0)


def test_apply_powers_off_idle_cold_server():
    eng = Engine()
    q = QRad("q", eng)
    reg = HeatRegulator()
    reg.set_target(20.0)
    reg.update(300.0, room_temp_c=25.0)  # no heat wanted
    reg.apply_to_server(q)
    assert not q.enabled


def test_apply_never_powers_off_busy_server():
    eng = Engine()
    q = QRad("q", eng)
    q.submit(Task("j", 1e15, cores=1))
    reg = HeatRegulator()
    reg.update(300.0, room_temp_c=25.0)
    reg.apply_to_server(q)
    assert q.enabled  # draining is the scheduler's job


def test_apply_powers_back_on_and_caps_frequency():
    eng = Engine()
    q = QRad("q", eng)
    q.power_off()
    reg = HeatRegulator(RegulatorConfig(kp=0.5, ki=0.0))
    reg.set_target(20.0)
    reg.update(300.0, room_temp_c=19.2)  # 0.4 demand
    reg.apply_to_server(q)
    assert q.enabled
    assert q.spec.ladder.power_scale(q.freq_index) <= 0.4 + 1e-9


def test_full_demand_means_top_frequency():
    eng = Engine()
    q = QRad("q", eng)
    reg = HeatRegulator()
    reg.set_target(22.0)
    reg.update(300.0, room_temp_c=10.0)
    reg.apply_to_server(q)
    assert q.freq_index == len(q.spec.ladder) - 1


def test_reset_clears_state():
    reg = HeatRegulator()
    reg.update(3600.0, room_temp_c=10.0)
    reg.reset()
    assert reg._integral == 0.0
    assert reg.power_fraction == 0.0


def test_closed_loop_tracks_setpoint():
    """Regulator + RC room converge near the setpoint in winter conditions."""
    from repro.thermal.rc_model import RCNetwork, RoomThermalParams

    net = RCNetwork([RoomThermalParams()], t_init_c=16.0)
    reg = HeatRegulator()
    reg.set_target(20.0)
    p_max = 500.0
    for _ in range(24 * 12):  # one day, 5-minute ticks
        u = reg.update(300.0, float(net.t_air[0]))
        net.step(300.0, t_out=3.0, p_heat=u * p_max)
    assert net.t_air[0] == pytest.approx(20.0, abs=0.7)


def test_bank_update_all_equals_detached_updates():
    """The detached ``update`` is the reference the bank pass must equal bit
    for bit, regulator by regulator, including clamps and setpoint changes."""
    rng = np.random.default_rng(11)
    configs = [RegulatorConfig(kp=float(rng.uniform(0.1, 1.0)),
                               ki=float(rng.uniform(0.0, 0.8)),
                               integral_limit=float(rng.uniform(0.5, 3.0)),
                               off_threshold=float(rng.uniform(0.0, 0.2)))
               for _ in range(9)]
    ref = [HeatRegulator(c) for c in configs]
    banked = [HeatRegulator(c) for c in configs]
    bank = FleetRegulatorBank()
    for r in banked:
        bank.attach(r)
    bank.freeze()
    for step in range(40):
        if step % 7 == 0:
            targets = rng.uniform(17.0, 23.0, size=len(ref))
            for a, b, t in zip(ref, banked, targets.tolist()):
                a.set_target(t)
                b.set_target(t)
        temps = rng.uniform(10.0, 28.0, size=len(ref))
        dt = float(rng.choice([300.0, 600.0]))
        for r, t in zip(ref, temps.tolist()):
            r.update(dt, t)
        bank.update_all(dt, temps)
        if step % 11 == 5:
            bank.scale_power(0.5)
            for r in ref:
                r.power_fraction *= 0.5
        for a, b in zip(ref, banked):
            assert (a.power_fraction, a._integral, a.last_error_c) == (
                b.power_fraction, b._integral, b.last_error_c)
        assert bank.heat_wanted_mask().tolist() == [r.heat_wanted for r in ref]
