"""Tests for the three baseline architectures."""

import pytest

from repro.baselines.cloud_only import CloudOnlyBaseline
from repro.baselines.desktop_grid import DesktopGridBaseline
from repro.baselines.micro_dc import MicroDatacenterBaseline
from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.sim.calendar import DAY, HOUR

GHZ = 1e9
WINTER = 10 * DAY


def edge(t, cycles=0.5 * GHZ, deadline=1.0, source="district-0/building-0"):
    return EdgeRequest(cycles=cycles, time=t, deadline_s=deadline, source=source,
                       input_bytes=2e3, output_bytes=500)


def cloud(t, cycles=10 * GHZ, cores=2):
    return CloudRequest(cycles=cycles, time=t, cores=cores, input_bytes=1e6)


# --------------------------------------------------------------------------- #
# cloud-only
# --------------------------------------------------------------------------- #
def test_cloud_only_executes_remotely():
    b = CloudOnlyBaseline(n_rooms=2, dc_nodes=1, start_time=WINTER)
    e, c = edge(WINTER + 10.0), cloud(WINTER + 10.0)
    b.inject([e, c])
    b.run_until(WINTER + HOUR)
    assert e.status is RequestStatus.COMPLETED
    assert c.status is RequestStatus.COMPLETED
    assert e.executed_on == "dc"
    assert e.network_delay_s > 0.05  # continental WAN both ways


def test_cloud_only_edge_latency_floor_is_wan_rtt():
    b = CloudOnlyBaseline(n_rooms=2, dc_nodes=1, start_time=WINTER)
    e = edge(WINTER + 10.0, deadline=0.05)  # tighter than the WAN RTT
    b.inject([e])
    b.run_until(WINTER + HOUR)
    assert not e.deadline_met()
    assert b.edge_deadline_miss_rate() == 1.0


def test_cloud_only_resistive_heating_burns_energy():
    b = CloudOnlyBaseline(n_rooms=4, dc_nodes=1, start_time=WINTER)
    b.run_until(WINTER + DAY)
    assert b.heater_energy_j > 0
    assert b.total_energy_j() >= b.heater_energy_j
    stats = b.comfort.result()
    assert stats.mean_temp_c > 18.0  # resistive heat does keep homes warm


def test_cloud_only_validation():
    with pytest.raises(ValueError):
        CloudOnlyBaseline(n_rooms=0)
    b = CloudOnlyBaseline(n_rooms=1, dc_nodes=1)
    with pytest.raises(TypeError):
        b.inject([object()])


# --------------------------------------------------------------------------- #
# micro-DC
# --------------------------------------------------------------------------- #
def test_micro_dc_local_edge_latency():
    b = MicroDatacenterBaseline(n_districts=2, start_time=WINTER)
    e = edge(WINTER + 10.0)
    b.inject([e])
    b.run_until(WINTER + HOUR)
    assert e.status is RequestStatus.COMPLETED
    assert e.deadline_met()
    assert e.executed_on == "mdc-0"
    assert e.network_delay_s < 0.15  # building radio + metro hops, no WAN


def test_micro_dc_routes_edge_by_district():
    b = MicroDatacenterBaseline(n_districts=2, start_time=WINTER)
    e = edge(WINTER + 10.0, source="district-1/building-0")
    b.inject([e])
    b.run_until(WINTER + HOUR)
    assert e.executed_on == "mdc-1"


def test_micro_dc_rejects_heat_outdoors():
    b = MicroDatacenterBaseline(n_districts=1, start_time=WINTER)
    b.inject([cloud(WINTER + 10.0)])
    b.run_until(WINTER + HOUR)
    assert b.ledger.total_outdoor_j > 0  # cooling rejection booked


def test_micro_dc_worse_pue_than_hyperscale():
    b = MicroDatacenterBaseline(n_districts=1)
    assert b.micro_dcs[0].nodes[0].cooling_overhead > 0.35


# --------------------------------------------------------------------------- #
# desktop grid
# --------------------------------------------------------------------------- #
def test_desktop_grid_runs_work_in_idle_window():
    b = DesktopGridBaseline(n_desktops=2, start_time=WINTER)  # 00:00, owners absent
    c = cloud(WINTER + 10.0, cycles=GHZ)
    b.inject([c])
    b.run_until(WINTER + HOUR)
    assert c.status is RequestStatus.COMPLETED


def test_desktop_grid_suspends_for_owner():
    b = DesktopGridBaseline(n_desktops=1, start_time=WINTER, owner_hours=(18.0, 23.0))
    # multi-hour job submitted in the afternoon; owner arrives at 18:00
    c = cloud(WINTER + 17.5 * HOUR, cycles=4e14, cores=8)
    b.inject([c])
    b.run_until(WINTER + 20 * HOUR)
    assert b.suspensions >= 1
    assert c.status is RequestStatus.QUEUED  # parked while owner present
    b.run_until(WINTER + 2 * DAY)
    assert c.status is RequestStatus.COMPLETED  # resumed overnight


def test_desktop_grid_edge_misses_during_owner_hours():
    b = DesktopGridBaseline(n_desktops=1, start_time=WINTER, owner_hours=(18.0, 23.0))
    e = edge(WINTER + 19 * HOUR)  # arrives while owner present
    b.inject([e])
    b.run_until(WINTER + 20 * HOUR)
    assert e.status is RequestStatus.QUEUED
    assert b.edge_deadline_miss_rate() == 1.0


def test_desktop_grid_noise_discomfort_counted():
    b = DesktopGridBaseline(n_desktops=1, start_time=WINTER, owner_hours=(18.0, 23.0))
    # grid work running as the owner arrives → preempted on the next tick,
    # but the partial tick of co-presence counts as noise discomfort
    c = cloud(WINTER + 17.9 * HOUR, cycles=1e14, cores=8)
    b.inject([c])
    b.run_until(WINTER + 18.2 * HOUR)
    assert b.noise_discomfort_hours > 0


def test_desktop_grid_unwanted_summer_heat():
    b = DesktopGridBaseline(n_desktops=1, start_time=200 * DAY)  # July
    c = cloud(200 * DAY + 10.0, cycles=1e13, cores=8)
    b.inject([c])
    b.run_until(200 * DAY + 6 * HOUR)
    assert b.unwanted_heat_kwh > 0


def test_desktop_grid_validation():
    with pytest.raises(ValueError):
        DesktopGridBaseline(n_desktops=0)
    with pytest.raises(ValueError):
        DesktopGridBaseline(owner_hours=(23.0, 18.0))


def test_desktop_grid_requeue_work_is_linear_in_requests():
    """A saturated grid must not retry the whole stuck queue on every
    completion: placement attempts stay linear in the request count, and
    every completed request was submitted to a desktop exactly once."""
    n_req, horizon = 300, HOUR
    b = DesktopGridBaseline(n_desktops=2, start_time=WINTER)  # owners absent
    reqs = [cloud(WINTER + 10.0, cycles=GHZ, cores=1) for _ in range(n_req)]
    b.inject(reqs)

    calls = {"try_place": 0, "submit": 0}
    try_place = b._try_place

    def counting_try_place(req, sink):
        calls["try_place"] += 1
        return try_place(req, sink)

    b._try_place = counting_try_place
    for d in b.desktops:
        def counting_submit(task, _submit=d.submit):
            calls["submit"] += 1
            return _submit(task)
        d.submit = counting_submit

    b.run_until(WINTER + horizon)
    assert all(r.status is RequestStatus.COMPLETED for r in reqs)
    ticks = int(horizon // 300.0)
    assert calls["try_place"] <= 4 * n_req + ticks * len(b.desktops)
    assert calls["submit"] == len(b.completed_cloud) == n_req


def test_baseline_engines_report_to_the_profiler():
    """``--profile`` sees the baseline worlds: each baseline engine carries
    the installed profiler (and no tracer while tracing is off)."""
    from repro.obs import Observability, Profiler, obs_session

    prof = Profiler()
    with obs_session(Observability(profiler=prof)):
        worlds = [CloudOnlyBaseline(n_rooms=2, dc_nodes=1, start_time=WINTER),
                  MicroDatacenterBaseline(n_rooms=2, start_time=WINTER),
                  DesktopGridBaseline(n_desktops=2, start_time=WINTER)]
    for w in worlds:
        assert w.engine.profiler is prof and w.engine.tracer is None
    grid = worlds[-1]
    grid.inject([cloud(WINTER + 10.0, cycles=GHZ)])
    grid.run_until(WINTER + HOUR)
    labels = prof.stats()
    assert labels["process:desktop-grid-tick"]["calls"] == 12
    assert labels["ComputeServer._on_completion_event"]["calls"] == 1


def test_e9_draws_its_streams_once_for_four_worlds(monkeypatch):
    """E9 samples each of its five request streams (four buildings' edge
    flows, one cloud flow) once, then materializes fresh requests per world
    through ``_streams`` -- one call per world."""
    from repro.experiments import e9_baselines
    from repro.workloads import arrivals

    calls = {"sample_nhpp": 0, "_streams": 0}
    sample, streams = arrivals.sample_nhpp, e9_baselines._streams

    def counting_sample(*args, **kwargs):
        calls["sample_nhpp"] += 1
        return sample(*args, **kwargs)

    def counting_streams(*args, **kwargs):
        calls["_streams"] += 1
        return streams(*args, **kwargs)

    monkeypatch.setattr(arrivals, "sample_nhpp", counting_sample)
    monkeypatch.setattr(e9_baselines, "_streams", counting_streams)
    result = e9_baselines.run(duration_days=0.25)
    assert list(result.data) == ["df3", "cloud-only", "micro-dc", "desktop-grid"]
    assert calls == {"sample_nhpp": 5, "_streams": 4}


def test_e9_worlds_get_equal_streams_with_fresh_ids():
    """Every world's stream is the same requests under new request ids."""
    from dataclasses import fields

    from repro.experiments import e9_baselines

    t0 = WINTER
    plans = e9_baselines._plan(41, t0, t0 + 0.25 * DAY)
    a = e9_baselines._streams(41, t0, t0 + 0.25 * DAY, plans)
    b = e9_baselines._streams(41, t0, t0 + 0.25 * DAY)

    def rows(reqs):
        return [{f.name: getattr(r, f.name) for f in fields(r)
                 if f.name != "request_id"} for r in reqs]

    for x, y in zip(a, b):
        assert x and rows(x) == rows(y)
        assert not {r.request_id for r in x} & {r.request_id for r in y}
