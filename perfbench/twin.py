"""twin-serve: a ``repro serve`` process under an open-loop HTTP client.

The server runs the default F3 twin free (pace 0), started paused, pinned
to the benchmark's CPU (see :mod:`speedometer`); the client runs on the
other CPUs.  The client subscribes to ``/events``, resumes the run, then
sends on a fixed schedule — an edge ``POST /api/inject`` with the API's
default body and a ``GET /api/state`` every ``1 / RATE_PER_S`` seconds
each, offset by half a period — until it has sent ``OPS_PER_KIND`` of
each.  Each request is timed from the moment it was due, so a stalled
server also charges the requests queued behind the stall.  One thread runs
the schedule (asyncio, one connection per request); a second reads the SSE
stream until ``run.finished`` and checks that its ``seq`` ids have no gaps.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from time import monotonic, sleep
from typing import Dict, List, Optional

from common import Outcome, median, percentile, summary

#: simulated days the twin runs per pass (about 4 host s on a 2-vCPU box).
#: The schedule below takes a quarter of that, so it still fits when the
#: twin gets about three times faster; past that, the check on the count of
#: requests sent fails and the workload must be resized
DAYS = 1.0
#: passes per untraced run, each with its own server; wall_s and setup_s
#: are medians over them, the latency tails pool their samples
PASSES = 3
#: injects per second, and as many state reads, on the open-loop schedule.
#: No client in the repo sets a rate for live injects (BENCH_service sends
#: its injects while the twin is paused): this rate is the benchmark's own
#: choice, not a measured one
RATE_PER_S = 70.0
#: injects (and reads) per pass: a fixed count, checked, so the offered
#: load does not depend on how fast the twin runs; pooled over the passes,
#: p95 has 10 samples beyond it
OPS_PER_KIND = 70
#: stop scheduling early once the run's progress passes this share, so no
#: inject can race the end of the run (a command after the horizon is
#: refused); a pass cut short this way fails its check
STOP_AT_PROGRESS = 0.95
#: the inject body: an edge request with the API's defaults (deadline 5 s)
INJECT_BODY = {"flow": "edge"}
#: p95 latency limits; a run whose p95 exceeds one fails its check
INJECT_LIMIT_MS = 2000.0
READ_LIMIT_MS = 1000.0
#: one request slower than this counts as failed (a timeout)
REQUEST_TIMEOUT_S = 30.0
HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class Server:
    """One twin server process: spawn, wait healthy, shut down."""

    def __init__(self, seed: int, traced: bool, work_dir: str, cpu: int):
        self.port = _free_port()
        self.ledger_path: Optional[str] = None
        if traced:
            self.ledger_path = os.path.join(
                work_dir, f"twin-ledger-{seed}-{os.getpid()}.json")
            cmd = [sys.executable, "perfbench/twin_launcher.py",
                   "--port", str(self.port), "--seed", str(seed),
                   "--days", str(DAYS), "--ledger-out", self.ledger_path]
        else:
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--port", str(self.port), "--seed", str(seed),
                   "--days", str(DAYS), "--pace", "0", "--start-paused"]
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.log_path = os.path.join(work_dir, f"twin-{self.port}.log")
        self._log = open(self.log_path, "wb")
        t0 = monotonic()
        self.proc = subprocess.Popen(cmd, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.proc.pid, {cpu})
        #: spawn → first healthy answer, as monotonic() timestamps
        self.spawn = (t0, self._wait_healthy(t0))

    def _wait_healthy(self, t0: float, timeout_s: float = 120.0) -> float:
        while monotonic() - t0 < timeout_s and self.proc.poll() is None:
            try:
                status, _ = self.request("GET", "/healthz", timeout=1.0)
                if status == 200:
                    return monotonic()
            except (OSError, http.client.HTTPException):
                pass
            sleep(0.005)
        self.proc.kill()
        self.proc.wait()
        self._log.close()
        raise RuntimeError(f"twin server never became healthy; see "
                           f"{self.log_path}")

    def request(self, method: str, path: str, body: Optional[dict] = None,
                timeout: float = REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection(HOST, self.port, timeout=timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self) -> int:
        """Ask the server to exit and wait for it, killing it if it will
        not; its log is kept only when it did not exit cleanly."""
        try:
            self.request("POST", "/api/shutdown", {}, timeout=10.0)
        except (OSError, http.client.HTTPException):
            pass  # the server may close before its reply is read
        try:
            code = self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self._log.close()
        if code == 0:
            os.remove(self.log_path)
        return code


class SseReader(threading.Thread):
    """Reads ``/events`` until ``run.finished``; checks ``seq`` continuity."""

    def __init__(self, port: int):
        super().__init__(name="sse-reader", daemon=True)
        self.conn = http.client.HTTPConnection(HOST, port,
                                               timeout=REQUEST_TIMEOUT_S)
        self.conn.request("GET", "/events")
        self.resp = self.conn.getresponse()   # subscribed once headers arrive
        self.status = self.resp.status
        self.events = 0
        self.gaps = 0
        self.progress = 0.0
        self.finished_at: Optional[float] = None
        self.finished = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        last_id = None
        kind = None
        try:
            for raw in self.resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    kind = line[7:]
                elif line.startswith("id: "):
                    seq = int(line[4:])
                    if last_id is not None and seq != last_id + 1:
                        self.gaps += 1
                    last_id = seq
                    self.events += 1
                elif line.startswith("data: ") and kind == "state":
                    self.progress = json.loads(line[6:]).get("progress", 0.0)
                elif line == "" and kind == "run.finished":
                    self.finished_at = monotonic()
                    break
        except (OSError, ValueError) as exc:
            self.error = exc
        finally:
            self.finished.set()
            self.conn.close()


async def _send(port: int, method: str, path: str, body: bytes) -> int:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        status_line = await reader.readline()
        await reader.read()   # the server closes after one response
        return int(status_line.split()[1])
    finally:
        writer.close()
        await writer.wait_closed()


async def _open_loop(port: int, sse: SseReader) -> Dict[str, List]:
    """Fire the schedule until the run nears its end; collect timings."""
    inject = json.dumps(INJECT_BODY).encode()
    period = 1.0 / RATE_PER_S
    t0 = monotonic()
    timings: Dict[str, List] = {"inject": [], "read": [], "lag": [],
                                "status": []}
    tasks = []

    async def one(kind: str, due: float) -> None:
        timings["lag"].append(monotonic() - due)
        method, path, body = (("POST", "/api/inject", inject)
                              if kind == "inject" else
                              ("GET", "/api/state", b""))
        try:
            status = await asyncio.wait_for(_send(port, method, path, body),
                                            REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            status = 0
        timings[kind].append(monotonic() - due)
        timings["status"].append((kind, status))

    k = 0
    while (k < OPS_PER_KIND and not sse.finished.is_set()
           and sse.progress < STOP_AT_PROGRESS):
        for kind, offset in (("inject", 0.0), ("read", 0.5)):
            due = t0 + (k + offset) * period
            delay = due - monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(kind, due)))
        k += 1
    await asyncio.gather(*tasks)
    return timings


def _twin_pass(seed: int, traced: bool, work_dir: str, cpu: int,
               out: Outcome) -> Dict[str, object]:
    """Spawn a server, drive one run through it, check, shut it down."""
    server = Server(seed, traced, work_dir, cpu)
    try:
        sse = SseReader(server.port)
        out.op(sse.status == 200, f"/events returned {sse.status}")
        sse.start()
        resumed = monotonic()
        status, _ = server.request("POST", "/api/control",
                                   {"action": "resume"})
        out.op(status == 200, f"resume returned {status}")
        timings = asyncio.run(_open_loop(server.port, sse))
        sse.finished.wait(timeout=150.0)
        sse.join(timeout=10.0)
        out.op(sse.finished_at is not None and sse.error is None
               and sse.gaps == 0,
               f"SSE stream: finished={sse.finished_at is not None}, "
               f"gaps={sse.gaps}, error={sse.error!r}")
        run = (resumed, sse.finished_at or monotonic())
        status, body = server.request("GET", "/api/state")
        state = json.loads(body) if status == 200 else {}
        out.op(status == 200 and state.get("finished") is True,
               "final /api/state does not show a finished run")
        rss = server.peak_rss_mib()
    finally:
        code = server.shutdown()
    out.check(code == 0, f"twin server exited with {code}")
    for kind, status in timings["status"]:
        out.op(status == 200, f"{kind} returned HTTP {status}")
    for kind in ("inject", "read"):
        sent = len(timings[kind])
        out.check(sent == OPS_PER_KIND,
                  f"{sent} of {OPS_PER_KIND} {kind} requests sent before "
                  "the run ended")
    injected = sum(1 for kind, s in timings["status"]
                   if kind == "inject" and s == 200)
    out.check(state.get("commands_applied") == injected,
              f"{state.get('commands_applied')} commands applied for "
              f"{injected} accepted injects")
    return {"spawn": server.spawn, "run": run, "rss": rss,
            "timings": timings, "sse_rate": sse.events / (run[1] - run[0]),
            "state": state, "ledger": server.ledger_path}


def _latency_report(passes: List[Dict[str, object]],
                    out: Outcome) -> Dict[str, float]:
    """Latency tails over the samples of every pass, checked on limits."""
    t = {k: [x for p in passes for x in p["timings"][k]]
         for k in ("inject", "read", "lag")}
    sse_rate = median([p["sse_rate"] for p in passes])
    inject_p95 = percentile(t["inject"], 95) * 1e3
    read_p95 = percentile(t["read"], 95) * 1e3
    out.check(inject_p95 <= INJECT_LIMIT_MS,
              f"inject p95 {inject_p95:.1f} ms over {INJECT_LIMIT_MS} ms")
    out.check(read_p95 <= READ_LIMIT_MS,
              f"read p95 {read_p95:.1f} ms over {READ_LIMIT_MS} ms")
    out.note(f"inject latency ms: {summary(t['inject'], 1e3)} "
             f"(limit p95 {INJECT_LIMIT_MS:g})")
    out.note(f"read latency ms: {summary(t['read'], 1e3)} "
             f"(limit p95 {READ_LIMIT_MS:g})")
    out.note(f"generator lag ms: {summary(t['lag'], 1e3)}")
    out.note(f"sse: {sse_rate:.1f} events/s; requests submitted by the "
             f"scenario: {passes[0]['state'].get('submitted')}")
    return {
        "service.inject_p50_ms": median(t["inject"]) * 1e3,
        "service.inject_p95_ms": inject_p95,
        "service.read_p50_ms": median(t["read"]) * 1e3,
        "service.read_p95_ms": read_p95,
        "bench.generator_lag_ms.p95": percentile(t["lag"], 95) * 1e3,
        "service.sse.events_per_s": sse_rate,
    }


def run_twin(seed: int, trace: bool, out: Outcome, work_dir: str,
             cpu: int) -> None:
    """``PASSES`` untraced passes; with ``trace``, then one traced pass.
    The servers run on ``cpu``, this client on the other CPUs."""
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)
    plain = [_twin_pass(seed, False, work_dir, cpu, out)
             for _ in range(PASSES)]
    extras = _latency_report(plain, out)
    if not trace:
        out.setups = [p["spawn"] for p in plain]
        out.passes = [[p["run"]] for p in plain]
        out.rss = max(p["rss"] for p in plain)
        return

    from layers import derive
    from ledger import LAYERS, Ledger

    traced = _twin_pass(seed, True, work_dir, cpu, out)
    with open(traced["ledger"], encoding="utf-8") as f:
        dump = json.load(f)
    ledger = Ledger.from_dict(dump)
    at_resume = dump["self_s_at_resume"]
    traced_wall = traced["run"][1] - traced["run"][0]
    self_s = {k: v - at_resume.get(k, 0.0) for k, v in ledger.self_s.items()}
    self_s["bench"] = traced_wall - sum(
        v for k, v in self_s.items() if k in LAYERS and k != "bench")
    extras.update({
        "service.commands_applied": dump["commands_applied"],
        "service.bus.published": dump["bus"]["published"],
        "service.bus.dropped": dump["bus"]["dropped"],
    })
    out.layer = derive(ledger, self_s, traced_wall, "twin-serve", extras)
    out.overhead = ([p["run"] for p in plain], traced["run"])
    out.note(f"twin ledger: {traced['ledger']}")
