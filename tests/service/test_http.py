"""TwinServer: REST endpoints, SSE stream, control plane, error paths."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.requests import reset_ids
from repro.service import ScenarioConfig, TwinConfig, TwinServer, build_twin


@pytest.fixture()
def served_twin():
    """A paused twin behind a real socket on an ephemeral port."""
    reset_ids()
    twin = build_twin(
        ScenarioConfig(duration_days=0.05, tail_days=0.01),
        TwinConfig(slice_s=300.0, telemetry_every_s=600.0, start_paused=True),
    )
    server = TwinServer(("127.0.0.1", 0), twin)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    twin.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield twin, base
    finally:
        twin.stop()
        server.shutdown()
        server.server_close()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return json.loads(r.read())


def post(base, path, body):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=35) as r:
        return json.loads(r.read())


def test_healthz(served_twin):
    twin, base = served_twin
    h = get(base, "/healthz")
    assert h["status"] == "ok" and h["paused"] and not h["finished"]
    assert h["now"] == twin.scenario.t0


def test_rest_state_endpoints(served_twin):
    twin, base = served_twin
    assert get(base, "/api/state")["paused"]
    fleet = get(base, "/api/fleet")
    assert len(fleet["districts"]) == 2 and fleet["weather_override_c"] == 0.0
    assert len(get(base, "/api/servers")["servers"]) == 12
    assert "slos" in get(base, "/api/slo")
    assert "completeness" in get(base, "/api/spans?prefix=edge.&slowest=3")
    assert "series" in get(base, "/api/metrics")
    assert get(base, "/api/trace/tail?n=7")["records"] is not None


def test_dashboard_served(served_twin):
    _, base = served_twin
    with urllib.request.urlopen(base + "/", timeout=10) as r:
        page = r.read().decode("utf-8")
        assert r.headers["Content-Type"].startswith("text/html")
    assert "EventSource('/events')" in page
    assert "/api/state" in page


def test_unknown_paths_404(served_twin):
    _, base = served_twin
    for method, path in (("GET", "/api/nope"), ("POST", "/api/nope")):
        req = urllib.request.Request(base + path, method=method,
                                     data=b"{}" if method == "POST" else None)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 404


def test_inject_and_control_round_trip(served_twin):
    twin, base = served_twin
    out = post(base, "/api/inject", {"flow": "edge", "deadline_s": 30.0})
    assert out["status"] == "injected" and out["request_id"].startswith("edge-")
    out = post(base, "/api/inject", {"flow": "cloud", "cycles": 1e10})
    assert out["request_id"].startswith("cloud-")
    assert twin.injected == {"heating": 0, "edge": 1, "cloud": 1}

    stepped = post(base, "/api/control", {"action": "step", "dt": 600.0})
    assert stepped["now"] == twin.scenario.t0 + 600.0
    post(base, "/api/control", {"action": "resume"})
    assert not get(base, "/api/state")["paused"]
    paused = post(base, "/api/control", {"action": "pause"})
    assert paused["status"] == "paused"


def test_scenario_mutation_round_trip(served_twin):
    twin, base = served_twin
    out = post(base, "/api/scenario",
               {"weather_delta_c": -5.0, "grid_cap_w": 1500.0})
    assert sorted(out["applied"]) == ["grid_cap_w", "weather_delta_c"]
    assert twin.mw.weather.override_delta_c == -5.0
    assert twin.mw.smartgrid.grid_cap_w == 1500.0
    out = post(base, "/api/scenario", {"kill_district": 1})
    assert out["detail"]["district"] == 1
    assert len(out["detail"]["servers_killed"]) == 6


def test_bad_requests_are_400_not_500(served_twin):
    _, base = served_twin
    cases = [
        ("/api/inject", {"flow": "quantum"}),
        ("/api/inject", {"flow": "edge", "source": "no-such-building"}),
        ("/api/scenario", {}),
        ("/api/scenario", {"kill_district": 99}),
        ("/api/control", {"action": "warp"}),
    ]
    for path, body in cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, path, body)
        assert err.value.code == 400, (path, body)
    # malformed JSON body
    req = urllib.request.Request(base + "/api/inject", data=b"not json{",
                                 method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400


def test_sse_stream_bounded_and_well_formed(served_twin):
    twin, base = served_twin
    post(base, "/api/control", {"action": "resume"})
    with urllib.request.urlopen(base + "/events?max_events=8",
                                timeout=60) as r:
        assert r.headers["Content-Type"] == "text/event-stream"
        raw = r.read().decode("utf-8")
    frames = [f for f in raw.split("\n\n") if f.strip() and
              not f.startswith(":")]
    assert len(frames) == 8
    kinds, ids = [], []
    for frame in frames:
        lines = dict(line.split(": ", 1) for line in frame.splitlines())
        kinds.append(lines["event"])
        ids.append(int(lines["id"]))
        json.loads(lines["data"])  # every payload is valid JSON
    assert ids == sorted(ids)
    assert set(kinds) <= {"run.started", "run.paused", "run.finished",
                          "state", "metrics", "slo.burn_rate", "slo.breach",
                          "trace", "command.applied", "command.failed"}


def test_sse_closes_when_run_finishes(served_twin):
    twin, base = served_twin
    done = {}

    def consume():
        # unbounded stream opened while the run is live: it must deliver
        # the lifecycle tail and then close on its own once the run is done
        with urllib.request.urlopen(base + "/events", timeout=60) as r:
            done["raw"] = r.read().decode("utf-8")

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    post(base, "/api/control", {"action": "resume"})
    assert twin.join(timeout=60)
    reader.join(timeout=30)
    assert not reader.is_alive(), "SSE stream did not close after the run"
    assert "event: run.finished" in done["raw"]


def _sse_frames(base, path, headers=None):
    """Read one SSE stream to its end; returns ``(seq, kind)`` per frame."""
    req = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=60) as r:
        raw = r.read().decode("utf-8")
    frames = []
    for frame in raw.split("\n\n"):
        if frame.strip() and not frame.startswith(":"):
            lines = dict(line.split(": ", 1) for line in frame.splitlines())
            frames.append((int(lines["id"]), lines["event"]))
    return frames


def test_sse_reconnect_with_last_event_id_resumes_without_gap(served_twin):
    twin, base = served_twin
    post(base, "/api/control", {"action": "resume"})
    assert twin.join(timeout=60)
    # a late subscriber replays the whole run and closes at run.finished
    full = _sse_frames(base, "/events")
    assert full[-1][1] == "run.finished"
    assert [seq for seq, _ in full] == list(range(len(full)))
    # a client that dropped after 5 events reconnects with the last id it saw
    head = _sse_frames(base, "/events?max_events=5")
    assert head == full[:5]
    tail = _sse_frames(base, "/events",
                       headers={"Last-Event-ID": str(head[-1][0])})
    assert head + tail == full
    assert _sse_frames(base, f"/events?since={full[-2][0]}") == full[-1:]
    for bad in ("/events?since=abc", "/events?max_events=x"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _sse_frames(base, bad)
        assert err.value.code == 400, bad


def test_shutdown_endpoint_flags_server(served_twin):
    twin, base = served_twin
    out = post(base, "/api/shutdown", {})
    assert out["status"] == "shutting down"
