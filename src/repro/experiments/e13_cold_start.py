"""E13 (extension) — the service stack: container cold starts (§II-B1, §III-B).

Q.rads run "computations embedded in containers or virtual machines"; §III-B
warns that the node environment "must cover the need of edge and DCC requests.
Otherwise, we should be able to reboot workers."  The cost of that flexibility
is measurable: the first request of an environment pays an image pull over the
fiber uplink plus a cold start; a disk budget smaller than the working set
thrashes the cache and keeps paying it.

Three Q.rads serve a rotating mix of three service images; we sweep the disk
budget and compare cold vs prefetched fleets.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import ExperimentResult, mid_month_start
from repro.hardware.containers import ContainerImage, DeploymentStack, Registry
from repro.hardware.qrad import QRad
from repro.hardware.server import Task
from repro.metrics.report import Table
from repro.network.link import Link
from repro.obs import get_obs
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

__all__ = ["run"]

_GHZ = 1e9

IMAGES = (
    ContainerImage("edge-ml", 0.8e9, cold_start_s=1.5),
    ContainerImage("map-tiles", 1.5e9, cold_start_s=2.0),
    ContainerImage("render", 4.0e9, cold_start_s=4.0),
)


def _scenario(disk_gb: float, prefetch: bool, n_requests: int, seed: int) -> Dict[str, float]:
    engine = Engine(start=mid_month_start(1), **get_obs().engine_hooks())
    rng = RngRegistry(seed).stream("e13")
    registry = Registry(Link("fiber", 0.004, 1e9))
    for img in IMAGES:
        registry.publish(img)
    servers = [QRad(f"q{i}", engine) for i in range(3)]
    stacks = [DeploymentStack(registry, disk_bytes=disk_gb * 1e9) for _ in servers]
    if prefetch:
        for stack in stacks:
            for img in IMAGES:
                if img.size_bytes <= stack.disk_bytes:
                    stack.prefetch(img.name)
            stack.hits = stack.misses = 0  # don't bill prefetch as demand misses

    latencies: List[float] = []
    t = engine.now + 1.0
    for i in range(n_requests):
        image = IMAGES[int(rng.integers(0, len(IMAGES)))]
        idx = int(np.argmin([s.busy_cores for s in servers]))
        server, stack = servers[idx], stacks[idx]
        arrival = t

        def start(srv=server, stk=stack, img=image, arr=arrival, n=i):
            delay = stk.ensure(img.name)

            def submit():
                task = Task(f"req-{n}", 0.2 * _GHZ, cores=1,
                            on_complete=lambda tk, now: latencies.append(now - arr))
                srv.submit(task)

            engine.schedule(delay, submit)

        engine.schedule_at(arrival, start)
        t += float(rng.exponential(3.0))
    engine.run_until(t + 300.0)
    lat = np.asarray(latencies)
    hits = sum(s.hits for s in stacks)
    misses = sum(s.misses for s in stacks)
    return {
        "served": len(lat),
        "p50_ms": float(np.percentile(lat, 50)) * 1e3 if lat.size else float("nan"),
        "p95_ms": float(np.percentile(lat, 95)) * 1e3 if lat.size else float("nan"),
        "hit_rate": hits / (hits + misses) if hits + misses else 1.0,
        "evictions": sum(s.evictions for s in stacks),
    }


def run(n_requests: int = 150, seed: int = 79) -> ExperimentResult:
    """Disk-budget sweep × cold/prefetched fleets."""
    rows = {
        "prefetched, 20 GB disk": _scenario(20.0, True, n_requests, seed),
        "cold, 20 GB disk": _scenario(20.0, False, n_requests, seed),
        "cold, 5 GB disk (thrash)": _scenario(5.0, False, n_requests, seed),
    }
    table = Table(["fleet", "p50_ms", "p95_ms", "cache_hit_rate", "evictions"],
                  title="E13 — container cold starts on the DF service stack (§II-B1)")
    for name, r in rows.items():
        table.add_row(name, round(r["p50_ms"], 1), round(r["p95_ms"], 1),
                      f"{r['hit_rate']:.0%}", r["evictions"])
    return ExperimentResult(
        experiment_id="E13",
        title="Service-stack cold starts (§II-B1, §III-B)",
        text=table.render(),
        data=rows,
    )
