"""DF3 benchmark: one workload, one seed, every metric by name, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heating-season --seed 1 \
        --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` runs the workload once untraced, then again
under the ledger of :mod:`ledger`, and reports the per-layer metrics (plus
the tracing overhead: traced ÷ untraced timed phase).  Every run checks the
program's outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import monotonic
from typing import Dict

from common import Outcome, median, peak_rss_mib, provenance

#: the end-to-end metrics every untraced run reports: (name, unit)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))

WORKLOAD_NAMES = ("heating-season", "churn-sweep", "baseline-worlds",
                  "twin-serve")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _measure_pass(wl, seed: int, out: Outcome):
    """One untraced set-up + timed phase + output check."""
    t0 = monotonic()
    state = wl.setup(seed)
    t1 = monotonic()
    result = wl.timed(state)
    t2 = monotonic()
    fingerprint = wl.verify(state, result, out)
    return state, result, (t0, t1), (t1, t2), fingerprint


def run_batch_untraced(wl, seed: int, seconds: float, out: Outcome) -> None:
    start = monotonic()
    fingerprints = []
    while True:
        state, result, setup, timed, fp = _measure_pass(wl, seed, out)
        out.setups.append(setup)
        out.passes.append(wl.units(timed, result))
        fingerprints.append(fp)
        wl.after_pass(state, result, start + seconds, out)
        wl.discard(state)
        if not wl.repeat or monotonic() - start >= seconds:
            break
    out.rss = peak_rss_mib()   # before the extra set-ups' garbage
    while len(out.setups) < wl.setup_reps:
        t0 = monotonic()
        state = wl.setup(seed)
        out.setups.append((t0, monotonic()))
        wl.discard(state)
    out.check(len(set(fingerprints)) == 1,
              "simulated fingerprint changed between passes of one seed")
    out.note(f"fingerprint: {fingerprints[0]}")


def run_batch_traced(wl, seed: int, out: Outcome, work_dir: str) -> None:
    from ledger import Ledger, install
    from layers import derive

    state, cold, _, untraced, fp_untraced = _measure_pass(wl, seed, out)
    wl.after_pass(state, cold, 0.0, out)
    wl.discard(state)

    run_id = f"{wl.name}-{seed}-{os.getpid()}"
    ledger = Ledger(run_id)
    uninstall = install(ledger)
    wl.ledger = ledger
    try:
        state = ledger.span("bench.setup", "bench", wl.setup, seed)
        before = dict(ledger.self_s)
        t0 = monotonic()
        result = ledger.span("bench.timed", "bench", wl.timed, state)
        traced = (t0, monotonic())
        self_s = {k: v - before.get(k, 0.0) for k, v in ledger.self_s.items()}
        extras = wl.extras(state, result, out)
    finally:
        uninstall()
    fp_traced = wl.verify(state, result, out)
    wl.discard(state)
    out.check(fp_traced == fp_untraced,
              "tracing changed the simulated outputs")
    out.note(f"fingerprint: {fp_traced}")
    out.layer = derive(ledger, self_s, traced[1] - traced[0], wl.name, extras)
    out.overhead = ([untraced], traced)
    spans_path = os.path.join(work_dir, f"spans-{run_id}.jsonl")
    ledger.write_spans(spans_path)
    out.note(f"spans: {len(ledger.spans)} written to {spans_path}")


def finish(out: Outcome, speedo, trace: bool) -> None:
    """Scale the recorded intervals to the reference speed (see
    :mod:`speedometer`) and fill in the reported metrics."""
    if trace:
        untraced, traced = out.overhead
        plain = median([speedo.scaled(*u) for u in untraced])
        out.layer["obs.trace_overhead_ratio"] = speedo.scaled(*traced) / plain
        return

    def per_unit(length):
        """Sum over a pass's units of each unit's median over passes."""
        return sum(median([length(*units[u]) for units in out.passes])
                   for u in range(len(out.passes[0])))

    out.metrics = {
        "setup_s": median([speedo.scaled(a, b) for a, b in out.setups]),
        "wall_s": per_unit(speedo.scaled),
        "peak_rss_mib": out.rss,
    }
    host_setup = median([b - a for a, b in out.setups])
    host_wall = per_unit(lambda a, b: b - a)
    everything = (out.setups[0][0], out.passes[-1][-1][1])
    out.note(f"host seconds, unscaled: setup {host_setup:.6g}, wall "
             f"{host_wall:.6g}; host slowness over the run "
             f"{speedo.slowness(*everything):.4f}")
    out.note(f"passes: {len(out.passes)}; set-ups measured: "
             f"{len(out.setups)}")


def report(out: Outcome, trace: bool, prov: Dict[str, object]) -> Dict:
    from layers import UNITS

    for key, value in prov.items():
        out.note(f"provenance.{key}: {value}")
    out.note(f"error_rate: {out.error_rate:.6g} "
             f"({out.failed} failed of {out.attempted} attempted)")
    for problem in out.problems:
        out.note(f"CHECK FAILED: {problem}")
    for failure in out.failures:
        out.note(f"OPERATION FAILED: {failure}")
    if trace:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in out.layer.items()}
    else:
        metrics = {k: {"value": out.metrics[k], "unit": u}
                   for k, u in END_TO_END}
    for k, m in metrics.items():
        out.note(f"{k}: {m['value']} {m['unit']}")
    return {"correct": out.correct, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        return _fail("run from the root of a checkout: src/repro is missing")
    sys.path.insert(0, os.path.abspath("src"))
    from batch import WORK_DIR, WORKLOADS
    from speedometer import Speedometer, bench_cpu

    os.makedirs(WORK_DIR, exist_ok=True)
    out = Outcome()
    prov = provenance(args.workload, args.seed)
    cpu = bench_cpu()
    out.note(f"workload and speedometer pinned to CPU {cpu}")
    speedo = Speedometer(cpu)
    try:
        if args.workload == "twin-serve":
            from twin import run_twin

            run_twin(args.seed, bool(args.trace), out, WORK_DIR, cpu)
        else:
            os.sched_setaffinity(0, {cpu})
            wl = WORKLOADS[args.workload]()
            if args.trace:
                run_batch_traced(wl, args.seed, out, WORK_DIR)
            else:
                run_batch_untraced(wl, args.seed, args.seconds, out)
    finally:
        speedo.stop()
    finish(out, speedo, bool(args.trace))
    result = report(out, bool(args.trace), prov)
    for line in out.lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
