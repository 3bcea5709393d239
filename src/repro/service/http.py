"""The ``repro serve`` HTTP layer: REST + SSE over one digital twin.

Stdlib only (``http.server`` + ``socketserver``): the service must boot in
the same dependency-light environment the experiments run in.  One
:class:`TwinServer` wraps one :class:`~repro.service.twin.DigitalTwin`;
handler threads are pure IO — they read the twin's snapshot views, enqueue
commands and stream bus events, but never touch simulation state directly
(the single-writer rule, DESIGN.md §2.15).

Endpoints
---------
``GET  /``                 live dashboard (SSE-backed HTML page)
``GET  /healthz``          liveness + sim clock
``GET  /api/state``        run status (clocks, progress, lifecycle; includes
                           recovery policy-engine counters when armed)
``GET  /api/fleet``        city rollup (energy, flows, district health)
``GET  /api/servers``      per-server rows
``GET  /api/slo``          SLO compliance tables (stable JSON)
``GET  /api/spans``        span-tree / critical-path summary
``GET  /api/metrics``      metrics snapshot
``GET  /api/trace/tail``   recent trace records (``?n=50``)
``GET  /events``           SSE telemetry stream (``?max_events=`` to bound;
                           replays recent events, see ``_stream_events``)
``POST /api/inject``       inject a request (edge / cloud / heating)
``POST /api/scenario``     mutate the scenario (weather / grid cap / kill)
``POST /api/control``      pause / pause_at / resume / step
``POST /api/shutdown``     stop the twin and the server
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.requests import CloudRequest, EdgeRequest, HeatingRequest
from repro.obs.report import render_live_dashboard
from repro.service.twin import DigitalTwin, TwinError

__all__ = ["TwinServer", "serve"]

_SSE_HEARTBEAT_S = 5.0          # keep-alive comment cadence on idle streams
_COMMAND_WAIT_S = 30.0          # POST round-trip budget


class TwinServer(ThreadingHTTPServer):
    """One twin, one port; handler threads are spawned per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], twin: DigitalTwin):
        super().__init__(address, _Handler)
        self.twin = twin
        self._shutdown_requested = threading.Event()

    def request_shutdown(self) -> None:
        """Flag a clean stop; ``serve`` unwinds on its next check."""
        self._shutdown_requested.set()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown_requested.is_set()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: TwinServer

    # quiet by default: one access-log line per request is engine-thread
    # noise the CLI surfaces only with --verbose
    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, html: str, status: int = 200) -> None:
        body = html.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------ #
    # GET
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        url = urlparse(self.path)
        q = parse_qs(url.query)
        twin = self.server.twin
        try:
            if url.path == "/healthz":
                self._send_json({"status": "ok", "now": twin.now,
                                 "paused": twin.paused,
                                 "finished": twin.finished})
            elif url.path == "/":
                self._send_html(render_live_dashboard())
            elif url.path == "/api/state":
                self._send_json(twin.state_dict())
            elif url.path == "/api/fleet":
                self._send_json(twin.fleet_dict())
            elif url.path == "/api/servers":
                self._send_json({"servers": twin.servers_dict()})
            elif url.path == "/api/slo":
                self._send_json(twin.slo_dict())
            elif url.path == "/api/spans":
                prefix = q.get("prefix", ["edge."])[0]
                n = int(q.get("slowest", ["5"])[0])
                self._send_json(twin.spans_dict(prefix=prefix, slowest_n=n))
            elif url.path == "/api/metrics":
                self._send_json({"now": twin.now,
                                 "series": twin.metrics_dict()})
            elif url.path == "/api/trace/tail":
                n = int(q.get("n", ["50"])[0])
                self._send_json(twin.trace_tail_dict(n=n))
            elif url.path == "/events":
                max_events = q.get("max_events")
                since = q.get("since", [self.headers.get("Last-Event-ID")])[0]
                try:
                    max_events = int(max_events[0]) if max_events else None
                    since = int(since) if since else -1
                except ValueError as exc:
                    self._error(400, f"bad /events parameter: {exc}")
                    return
                self._stream_events(max_events, since)
            else:
                self._error(404, f"no such path: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-write; nothing to clean up
        except Exception as exc:
            self._error(500, repr(exc))

    def _stream_events(self, max_events: Optional[int], since: int) -> None:
        """The SSE writer loop: drain this subscriber until it disconnects.

        The stream starts with the bus's replay ring: every retained event
        with ``seq > since`` (``?since=N`` or the ``Last-Event-ID: N`` header
        of a reconnecting EventSource; ``-1``, the whole ring, when neither
        is given), so a client that connects after a short run finished
        still sees it.  ``max_events`` bounds the stream then closes it —
        what the CI smoke test and curl-based probes use to consume a finite
        prefix.  The stream also closes right after ``run.finished``.
        """
        twin = self.server.twin
        sub = twin.bus.subscribe(since=since)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            sent = 0
            while max_events is None or sent < max_events:
                try:
                    ev = sub.events.get(timeout=_SSE_HEARTBEAT_S)
                except queue.Empty:
                    if twin.finished and sub.events.empty():
                        break
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                frame = (f"event: {ev.kind}\nid: {ev.seq}\n"
                         f"data: {json.dumps(ev.data, sort_keys=True)}\n\n")
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sent += 1
                if ev.kind == "run.finished":
                    break
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            twin.bus.unsubscribe(sub)
            self.close_connection = True

    # ------------------------------------------------------------------ #
    # POST
    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        url = urlparse(self.path)
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"bad request body: {exc}")
            return
        try:
            if url.path == "/api/inject":
                self._send_json(self._handle_inject(body))
            elif url.path == "/api/scenario":
                self._send_json(self._handle_scenario(body))
            elif url.path == "/api/control":
                self._send_json(self._handle_control(body))
            elif url.path == "/api/shutdown":
                self.server.request_shutdown()
                self._send_json({"status": "shutting down",
                                 "now": self.server.twin.now})
            else:
                self._error(404, f"no such path: {url.path}")
        except (TwinError, ValueError, KeyError) as exc:
            self._error(400, repr(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:
            self._error(500, repr(exc))

    def _handle_inject(self, body: Dict[str, Any]) -> Dict[str, Any]:
        twin = self.server.twin
        flow = body.get("flow", "edge")
        at = body.get("at")

        def factory(sim_now: float):
            t = float(at) if at is not None else sim_now
            if flow == "edge":
                # validate the origin here, on the engine thread, so a bad
                # request fails the command (HTTP 400) instead of blowing up
                # a scheduled callback minutes of sim-time later
                buildings = twin.mw.buildings
                source = body.get("source") or next(iter(buildings))
                if source not in buildings:
                    raise ValueError(f"unknown source building {source!r}")
                return EdgeRequest(
                    cycles=float(body.get("cycles", 200e6)),
                    time=t,
                    cores=int(body.get("cores", 1)),
                    deadline_s=float(body.get("deadline_s", 5.0)),
                    source=source,
                )
            if flow == "cloud":
                return CloudRequest(
                    cycles=float(body.get("cycles", 3.6e12)),
                    time=t,
                    cores=int(body.get("cores", 4)),
                    user=body.get("user", "service"),
                    preemptible=bool(body.get("preemptible", True)),
                )
            if flow == "heating":
                return HeatingRequest(
                    target_temp_c=float(body.get("target_temp_c", 20.0)),
                    time=t,
                    rooms=tuple(body.get("rooms", ())),
                    collective=bool(body.get("collective", False)),
                )
            raise ValueError(f"unknown flow {flow!r}")

        cmd = twin.inject_request(
            factory, flow, at=float(at) if at is not None else None,
            wait=_COMMAND_WAIT_S)
        return {"status": "injected", "flow": flow,
                "request_id": cmd.result, "applied_at": twin.now}

    def _handle_scenario(self, body: Dict[str, Any]) -> Dict[str, Any]:
        twin = self.server.twin
        at = body.get("at")
        at = float(at) if at is not None else None
        applied = []
        if "weather_delta_c" in body:
            twin.set_weather_override(float(body["weather_delta_c"]),
                                      at=at, wait=_COMMAND_WAIT_S)
            applied.append("weather_delta_c")
        if "grid_cap_w" in body:
            cap = body["grid_cap_w"]
            twin.set_grid_cap(float(cap) if cap is not None else None,
                              at=at, wait=_COMMAND_WAIT_S)
            applied.append("grid_cap_w")
        if "kill_district" in body:
            cmd = twin.kill_district(int(body["kill_district"]),
                                     at=at, wait=_COMMAND_WAIT_S)
            applied.append("kill_district")
            return {"status": "applied", "applied": applied,
                    "detail": cmd.result, "now": twin.now}
        if not applied:
            raise ValueError(
                "scenario body needs weather_delta_c, grid_cap_w "
                "or kill_district")
        return {"status": "applied", "applied": applied, "now": twin.now}

    def _handle_control(self, body: Dict[str, Any]) -> Dict[str, Any]:
        twin = self.server.twin
        action = body.get("action")
        if action == "pause":
            return {"status": "paused", "now": twin.pause()}
        if action == "pause_at":
            twin.pause_at(float(body["at"]))
            return {"status": "pause scheduled", "at": float(body["at"])}
        if action == "resume":
            twin.resume()
            return {"status": "resumed", "now": twin.now}
        if action == "step":
            now = twin.step(float(body.get("dt", 60.0)))
            return {"status": "stepped", "now": now}
        raise ValueError(f"unknown action {action!r}")


def serve(twin: DigitalTwin, host: str = "127.0.0.1", port: int = 8008,
          verbose: bool = False,
          ready: Optional[threading.Event] = None) -> int:
    """Run the server until the twin finishes or a shutdown is requested.

    Returns the bound port (useful with ``port=0``).  ``ready`` is set once
    the socket is listening — test hooks wait on it instead of polling.
    """
    server = TwinServer((host, port), twin)
    server.verbose = verbose
    bound_port = server.server_address[1]
    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True,
        kwargs={"poll_interval": 0.1})
    serve_thread.start()
    if not twin.running:
        twin.start()
    if ready is not None:
        ready.set()
    try:
        while not server.shutdown_requested:
            if twin.join(timeout=0.2):
                # run done: keep serving reads until a shutdown arrives
                # (headless callers stop via POST /api/shutdown)
                server._shutdown_requested.wait()
                break
        return bound_port
    finally:
        twin.stop()
        server.shutdown()
        server.server_close()
