"""E2 — edge service latency across submission paths (§II-C, §III-B).

"Direct requests ... the edge user has a direct connection to the server ...
Indirect requests ... imply to pay an additional latency cost."  Vertical
offloading pays a WAN round trip on top.  We measure the same request shape
over four paths — direct, indirect (master hop), horizontal (peer cluster),
vertical (datacenter) — and over the four low-power protocols the paper names.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.requests import CloudRequest, EdgeMode, EdgeRequest
from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.latency import LatencyStats
from repro.metrics.report import Table
from repro.network.lowpower import ENOCEAN, LORA, SIGFOX, ZIGBEE
from repro.sim.calendar import MINUTE

__all__ = ["run"]

_GHZ = 1e9


def _requests(n: int, t0: float, spacing: float, privacy: bool = False) -> List[EdgeRequest]:
    return [
        EdgeRequest(
            cycles=0.3 * _GHZ, time=t0 + i * spacing, deadline_s=30.0,
            input_bytes=2e3, output_bytes=500,
            source="district-0/building-0", privacy_sensitive=privacy,
        )
        for i in range(n)
    ]


def _median_latency(mw, reqs) -> float:
    done = [r for r in reqs if r.status.value == "completed"]
    if not done:
        return float("nan")
    return LatencyStats.from_requests(done).median_s


def run(n_requests: int = 60, seed: int = 13) -> ExperimentResult:
    """Measure per-path and per-protocol edge latency."""
    t0 = mid_month_start(1)
    horizon = t0 + n_requests * 30.0 + 10 * MINUTE
    latencies: Dict[str, float] = {}

    # direct: device → its own Q.rad
    mw = small_city(seed=seed, start_time=t0)
    reqs = _requests(n_requests, t0 + MINUTE, 30.0)
    for r in reqs:
        r.mode = EdgeMode.DIRECT
    targets = {r.request_id: "district-0/building-0/qrad-0" for r in reqs}
    mw.inject(reqs, direct_targets=targets)
    mw.run_until(horizon)
    latencies["direct"] = _median_latency(mw, reqs)

    # indirect: via the cluster master
    mw = small_city(seed=seed, start_time=t0)
    reqs = _requests(n_requests, t0 + MINUTE, 30.0)
    mw.inject(reqs)
    mw.run_until(horizon)
    latencies["indirect"] = _median_latency(mw, reqs)

    # horizontal: district 0 full, peers serve
    mw = small_city(seed=seed, start_time=t0,
                    saturation_policy=SaturationPolicy.HORIZONTAL,
                    enable_filler=False)
    for w in mw.clusters[0].workers:  # saturate district 0 with pinned work
        for c in range(w.n_cores):
            blocker = CloudRequest(cycles=1e15, time=t0, cores=1, preemptible=False)
            mw.schedulers[0].submit_cloud(blocker)
    reqs = _requests(n_requests, t0 + MINUTE, 30.0)
    mw.inject(reqs)
    mw.run_until(horizon)
    latencies["horizontal"] = _median_latency(mw, reqs)

    # vertical: radio to the gateway, then the cluster is full → WAN to the DC
    mw = small_city(seed=seed, start_time=t0,
                    saturation_policy=SaturationPolicy.VERTICAL,
                    enable_filler=False, allow_privacy_vertical=True)
    for d in mw.clusters:  # saturate every cluster so vertical is the only out
        for w in mw.clusters[d].workers:
            for c in range(w.n_cores):
                mw.schedulers[d].submit_cloud(
                    CloudRequest(cycles=1e15, time=t0, cores=1, preemptible=False)
                )
    reqs = _requests(n_requests, t0 + MINUTE, 30.0)
    mw.inject(reqs)
    mw.run_until(horizon)
    latencies["vertical"] = _median_latency(mw, reqs)

    table = Table(["path", "median_latency_ms"],
                  title="E2a — same edge request over the four DF3 paths")
    for path in ("direct", "indirect", "horizontal", "vertical"):
        table.add_row(path, round(latencies[path] * 1e3, 2))

    # per-protocol sweep (indirect path), each driven at a rate its
    # duty-cycle budget can sustain (§III-B: these protocols are slow)
    proto_plan = (
        (ZIGBEE, 2e3, 60.0, 20),
        (ENOCEAN, 14.0, 60.0, 20),  # telegram protocol: 14-byte payloads
        (LORA, 2e3, 400.0, 10),
        (SIGFOX, 12.0, 600.0, 8),
    )
    proto_lat: Dict[str, float] = {}
    for proto, size, spacing, n in proto_plan:
        mw = small_city(seed=seed, start_time=t0, edge_protocol=proto)
        reqs = _requests(n, t0 + MINUTE, spacing)
        for r in reqs:
            r.input_bytes = size
            r.deadline_s = 600.0
        mw.inject(reqs)
        mw.run_until(t0 + MINUTE + n * spacing + 20 * MINUTE)
        proto_lat[proto.name] = _median_latency(mw, reqs)
    t2 = Table(["protocol", "median_latency_ms"],
               title="E2b — indirect edge latency per low-power protocol (§III-B)")
    for name in ("zigbee", "enocean", "lora", "sigfox"):
        t2.add_row(name, round(proto_lat[name] * 1e3, 1))

    return ExperimentResult(
        experiment_id="E2",
        title="Edge latency: direct vs indirect vs offloaded (§II-C)",
        text=table.render() + "\n\n" + t2.render(),
        data={"paths": latencies, "protocols": proto_lat},
    )
