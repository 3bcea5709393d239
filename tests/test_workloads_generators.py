"""Tests for cloud, edge, alarm and heating workload generators."""

import dataclasses

import numpy as np
import pytest

from repro.core.requests import EdgeMode, HeatingRequest
from repro.sim.calendar import DAY, HOUR
from repro.sim.rng import RngRegistry
from repro.workloads.alarms import AlarmStreamConfig, AlarmStreamGenerator
from repro.workloads.cloud import (
    QARNOT_2016_CAMPAIGN,
    CloudJobConfig,
    CloudJobGenerator,
    RenderCampaign,
)
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator
from repro.workloads.heating import HeatingBehavior, HeatingRequestGenerator


def rng(seed=0, name="wl"):
    return RngRegistry(seed).stream(name)


# --------------------------------------------------------------------------- #
# cloud
# --------------------------------------------------------------------------- #
def test_cloud_generator_business_hours_bias():
    gen = CloudJobGenerator(rng(), CloudJobConfig(rate_per_hour=60.0))
    reqs = gen.generate(0.0, 5 * DAY)
    hours = np.array([(r.time / HOUR) % 24 for r in reqs])
    office = np.sum((hours >= 9) & (hours < 18))
    assert office > 0.6 * len(reqs)


def test_cloud_demand_distribution_mean():
    cfg = CloudJobConfig(rate_per_hour=200.0, mean_core_seconds=100.0, sigma_log=0.5)
    gen = CloudJobGenerator(rng(1), cfg)
    reqs = gen.generate(0.0, 10 * DAY)
    core_seconds = np.array([r.cycles / (cfg.ref_freq_ghz * 1e9) for r in reqs])
    assert np.mean(core_seconds) == pytest.approx(100.0, rel=0.25)
    assert all(1 <= r.cores <= cfg.max_cores for r in reqs)


def test_cloud_config_validation():
    with pytest.raises(ValueError):
        CloudJobConfig(mean_core_seconds=0.0)
    with pytest.raises(ValueError):
        CloudJobConfig(max_cores=0)


def _fields_but_id(req):
    return {f.name: getattr(req, f.name) for f in dataclasses.fields(req)
            if f.name != "request_id"}


def test_cloud_materialize_of_plan_equals_generate():
    """``materialize(plan(...))`` is ``generate(...)`` field for field (ids
    aside: each construction takes fresh ones) and draws the same rng."""
    cfg = CloudJobConfig(rate_per_hour=40.0)
    direct = CloudJobGenerator(rng(7), cfg)
    split = CloudJobGenerator(rng(7), cfg)
    reqs = direct.generate(0.0, 3 * DAY)
    plan = split.plan(0.0, 3 * DAY)
    assert len(reqs) > 50
    assert split.rng.bit_generator.state == direct.rng.bit_generator.state
    for again in (split.materialize(plan), split.materialize(plan)):
        assert [_fields_but_id(r) for r in again] == [_fields_but_id(r) for r in reqs]
        assert not {r.request_id for r in again} & {r.request_id for r in reqs}


def test_render_campaign_published_stats():
    assert QARNOT_2016_CAMPAIGN.users == 1100
    assert QARNOT_2016_CAMPAIGN.frames == 600_000
    assert QARNOT_2016_CAMPAIGN.total_core_hours == 11_000_000.0
    assert QARNOT_2016_CAMPAIGN.mean_core_hours_per_frame == pytest.approx(18.33, abs=0.01)


def test_render_campaign_scaled_replay():
    camp = RenderCampaign(rng(2), scale=1e-4, duration_s=10 * DAY)
    reqs = camp.generate()
    assert len(reqs) == camp.n_frames == 60
    assert all(0.0 <= r.time < 10 * DAY for r in reqs)
    # per-frame demand averages near the published 18.3 core-hours
    ch = np.array([r.cycles / (camp.ref_freq_ghz * 1e9) / 3600.0 for r in reqs])
    assert np.mean(ch) == pytest.approx(18.33, rel=0.5)


def test_render_campaign_validation():
    with pytest.raises(ValueError):
        RenderCampaign(rng(), scale=0.0)
    with pytest.raises(ValueError):
        RenderCampaign(rng(), duration_s=0.0)


# --------------------------------------------------------------------------- #
# edge
# --------------------------------------------------------------------------- #
def test_edge_generator_basics():
    gen = EdgeWorkloadGenerator(rng(3), source="district-0/building-0")
    reqs = gen.generate(0.0, 2 * DAY)
    assert len(reqs) > 50
    assert all(r.source == "district-0/building-0" for r in reqs)
    assert all(r.deadline_s in (0.5, 2.0, 5.0) for r in reqs)
    assert all(r.mode is EdgeMode.INDIRECT for r in reqs)  # default direct_fraction=0


def test_edge_direct_fraction():
    cfg = EdgeWorkloadConfig(direct_fraction=1.0)
    gen = EdgeWorkloadGenerator(rng(4), source="b", config=cfg)
    reqs = gen.generate(0.0, DAY)
    assert all(r.mode is EdgeMode.DIRECT for r in reqs)


def test_edge_burst():
    gen = EdgeWorkloadGenerator(rng(5), source="b")
    burst = gen.generate_burst(100.0, n=10, spacing_s=0.1)
    assert len(burst) == 10
    assert burst[0].time == 100.0
    assert burst[-1].time == pytest.approx(100.9)


@pytest.mark.parametrize("classes", [
    ((0.5, 0.3), (2.0, 0.5), (5.0, 0.2)),
    ((1.0, 0.0), (3.0, 2.0), (7.0, 0.0), (9.0, 1.0)),
])
def test_edge_deadline_draw_is_generator_choice(classes):
    """The tabulated inverse-CDF deadline draw equals
    ``Generator.choice(deadlines, p=...)`` on a same-seed generator, draw
    for draw; a numpy whose ``choice`` draws differently fails here."""
    cfg = EdgeWorkloadConfig(deadline_classes=classes, direct_fraction=0.3)
    gen = EdgeWorkloadGenerator(rng(9), source="b", config=cfg)
    mirror = rng(9)
    deadlines = np.array([d for d, _ in classes])
    weights = np.array([w for _, w in classes], dtype=float)
    p = weights / weights.sum()
    mu = np.log(cfg.mean_megacycles * 1e6) - 0.5 * cfg.sigma_log**2
    plan = gen.plan_burst(0.0, n=10_000)
    for t, cycles, deadline, mode in plan:
        assert cycles == float(mirror.lognormal(mu, cfg.sigma_log))
        assert deadline == float(mirror.choice(deadlines, p=p))
        direct = mirror.random() < cfg.direct_fraction
        assert mode == (EdgeMode.DIRECT if direct else EdgeMode.INDIRECT).value
    assert {d for _, _, d, _ in plan} == {d for d, w in classes if w > 0}
    assert gen.rng.bit_generator.state == mirror.bit_generator.state


def test_edge_config_validation():
    with pytest.raises(ValueError):
        EdgeWorkloadConfig(deadline_classes=())
    with pytest.raises(ValueError):
        EdgeWorkloadConfig(deadline_classes=((0.0, 1.0),))
    with pytest.raises(ValueError):
        EdgeWorkloadConfig(direct_fraction=2.0)


# --------------------------------------------------------------------------- #
# alarms
# --------------------------------------------------------------------------- #
def test_alarm_stream_cadence():
    cfg = AlarmStreamConfig(n_devices=4, frame_period_s=1.0, alarm_rate_per_day=0.0)
    gen = AlarmStreamGenerator(rng(6), source="b", config=cfg)
    inf, conf = gen.generate(0.0, 60.0)
    assert conf == []
    assert len(inf) == pytest.approx(4 * 60, abs=4)  # 4 devices × 60 frames
    assert gen.frame_rate_hz() == 4.0
    # stream is time-sorted
    times = [r.time for r in inf]
    assert times == sorted(times)


def test_alarm_confirmations_sparse_and_heavy():
    cfg = AlarmStreamConfig(n_devices=2, alarm_rate_per_day=50.0)
    gen = AlarmStreamGenerator(rng(7), source="b", config=cfg)
    inf, conf = gen.generate(0.0, 2 * DAY)
    assert 20 < len(conf) < 300
    assert len(conf) < 0.01 * len(inf)
    assert conf[0].cycles > 10 * inf[0].cycles


def test_alarm_requests_privacy_tagged():
    gen = AlarmStreamGenerator(rng(8), source="b")
    inf, _ = gen.generate(0.0, 10.0)
    assert all(r.privacy_sensitive for r in inf)


def test_alarm_config_validation():
    with pytest.raises(ValueError):
        AlarmStreamConfig(n_devices=0)
    with pytest.raises(ValueError):
        AlarmStreamConfig(confirm_factor=0.5)


# --------------------------------------------------------------------------- #
# heating
# --------------------------------------------------------------------------- #
def test_heating_generator_daynight_transitions():
    gen = HeatingRequestGenerator(rng(9), rooms=("a", "b"))
    reqs = gen.generate(0.0, 3 * DAY)
    scheduled = [r for r in reqs if r.time % DAY in (6.5 * HOUR, 22.5 * HOUR)]
    assert len(scheduled) == 6  # 2 per day × 3 days
    assert all(isinstance(r, HeatingRequest) for r in reqs)
    times = [r.time for r in reqs]
    assert times == sorted(times)


def test_incentivized_hosts_keep_higher_setpoints():
    inc = HeatingRequestGenerator(rng(10), rooms=("a",), behavior=HeatingBehavior.INCENTIVIZED)
    cc = HeatingRequestGenerator(rng(10), rooms=("a",), behavior=HeatingBehavior.COST_CONSCIOUS)
    assert inc.mean_winter_setpoint() > cc.mean_winter_setpoint() + 1.0


def test_cost_conscious_tweaks_more_often():
    inc = HeatingRequestGenerator(rng(11), rooms=("a",), behavior=HeatingBehavior.INCENTIVIZED)
    cc = HeatingRequestGenerator(rng(11), rooms=("a",), behavior=HeatingBehavior.COST_CONSCIOUS)
    n_inc = len(inc.generate(0.0, 30 * DAY))
    n_cc = len(cc.generate(0.0, 30 * DAY))
    assert n_cc > n_inc


def test_single_room_never_collective():
    gen = HeatingRequestGenerator(rng(12), rooms=("solo",), collective_fraction=1.0)
    reqs = gen.generate(0.0, 30 * DAY)
    assert all(not r.collective for r in reqs)


def test_heating_generator_validation():
    with pytest.raises(ValueError):
        HeatingRequestGenerator(rng(), rooms=())
    with pytest.raises(ValueError):
        HeatingRequestGenerator(rng(), rooms=("a",), collective_fraction=1.5)
    gen = HeatingRequestGenerator(rng(), rooms=("a",))
    with pytest.raises(ValueError):
        gen.generate(10.0, 0.0)
