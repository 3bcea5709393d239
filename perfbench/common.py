"""Shared pieces of the benchmark: statistics, provenance, output checks."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
from typing import Dict, Iterable, List, Sequence, Tuple

#: seeds kept out of every tuning run, one per workload, for confirming a
#: later performance claim on inputs nobody optimised against
HELD_OUT_SEEDS = {
    "heating-season": 7919,
    "churn-sweep": 7927,
    "baseline-worlds": 7933,
    "twin-serve": 7937,
}

#: fewest CPUs on which the numbers mean what the README says: twin-serve
#: runs a server and a client process side by side
MIN_CPUS = 2


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))]


def tail_level(n: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with at least 10 samples beyond."""
    best = 50.0
    for q in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def commit_sha() -> str:
    """``git rev-parse HEAD`` of the checkout, or a label saying why not."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> Dict[str, object]:
    import numpy

    cpus = os.cpu_count() or 1
    return {
        "commit": commit_sha(),
        "cpu_count": cpus,
        "box": "ok" if cpus >= MIN_CPUS else
               f"undersized (cpu_count {cpus} < {MIN_CPUS}; twin-serve's "
               "client and server share one CPU)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEEDS[workload],
    }


def request_outcomes(requests: Iterable) -> Dict[str, int]:
    """Count requests per lifecycle status, and the inconsistent ones.

    A request must end in exactly one state: completed (with a completion
    time no earlier than its arrival), rejected, or still queued/running at
    the horizon.  ``created`` means its arrival never reached the model,
    which is a lost request.  ``inconsistent`` flags a completed request
    without a valid completion time, and a request that carries a
    completion time but is not completed, which means it was put back in
    a queue after it had completed.
    """
    from repro.core.requests import RequestStatus

    out: Dict[str, int] = {"inconsistent": 0}
    for r in requests:
        out[r.status.value] = out.get(r.status.value, 0) + 1
        if r.status is RequestStatus.COMPLETED and r.completed_at < r.time:
            out["inconsistent"] += 1
        if r.status is not RequestStatus.COMPLETED and r.completed_at >= 0:
            out["inconsistent"] += 1
    return out


def outcome_failures(outcomes: Dict[str, int]) -> int:
    """Requests that did not end in exactly one valid state."""
    return outcomes.get("created", 0) + outcomes.get("inconsistent", 0)


def fmt_counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def summary(values: List[float], unit_scale: float = 1.0) -> str:
    """``median / tail (pNN) / n`` of a sample list, for the report lines."""
    n = len(values)
    q = tail_level(n)
    return (f"p50 {median(values) * unit_scale:.4g}, "
            f"p{q:g} {percentile(values, q) * unit_scale:.4g}, n={n}")


class Outcome:
    """What one benchmark run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}   # end-to-end: name → value
        self.layer: Dict[str, float] = {}     # per-layer: name → value
        # monotonic() intervals the metrics are computed from, once the
        # speedometer has stopped: set-ups, and per pass its timed units
        self.setups: List[Tuple[float, float]] = []
        self.passes: List[List[Tuple[float, float]]] = []
        self.overhead: Tuple = ()   # ([untraced timed phases], traced one)
        self.rss = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []         # failed run checks, in words
        self.failures: List[str] = []         # failed operations, in words
        self.lines: List[str] = []            # human-readable report

    def check(self, ok: bool, what: str) -> bool:
        """One check of the run's outputs against their references (goldens,
        digests, fingerprints); a failed one makes the run incorrect."""
        if not ok:
            self.problems.append(what)
        return ok

    def op(self, ok: bool, what: str) -> None:
        """One attempted operation (a window, a sweep cell, a world, an HTTP
        request); a failed one counts in ``failed`` and ``error_rate``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def note(self, line: str) -> None:
        self.lines.append(line)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
