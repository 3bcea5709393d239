"""Command-line experiment runner.

Usage::

    python -m repro list                 # show all experiments
    python -m repro run F4               # run one experiment, print its table
    python -m repro run all              # run every experiment
    python -m repro run E5 --seed 123    # override the seed
    python -m repro run E3 --kernel surrogate # district-aggregate surrogate tier

``--kernel`` picks the simulation kernel: ``vector`` (the default, and the
one exact kernel, pinned by the golden fixtures) or ``surrogate`` (the
tolerance-budgeted district-aggregate tier).  It is exported as
``$REPRO_KERNEL`` for the duration of the command, so sweep worker
processes inherit it, and the caller's value is restored afterwards.

Parallelism and caching (see DESIGN.md, "Sweep runner")::

    python -m repro run A6 --jobs 4          # sweep points over 4 processes
    python -m repro run all                  # warm runs reuse .repro_cache/
    python -m repro run all --no-cache       # force recomputation
    python -m repro run E3 --cache-dir /tmp/c

Sweep-shaped experiments (those exporting a ``SWEEP`` spec) run as task
graphs executed by :class:`repro.runner.SweepRunner`: each sweep's shared
prefix stage — workload plans, city blueprints — becomes an upstream node
computed once and fanned out to the independent sweep points.  Completed
nodes are stored content-addressed under ``--cache-dir`` (default
``.repro_cache/``), keyed by node spec + upstream keys + code version, so a
re-run only recomputes what changed.  ``--jobs N`` executes the pending
subgraph over a work-stealing worker pool; ``--jobs 1`` (the default)
executes nodes inline in deterministic graph order.  Any jobs × cache
combination produces byte-identical tables, because results are always
reassembled in points order.  Runs with observability flags bypass the
cache: an instrumented run must actually execute to have something to
observe.

Observability (see DESIGN.md, "Observability") — any combination of::

    python -m repro run F3 --trace t.jsonl         # structured JSONL trace
    python -m repro run F3 --chrome-trace t.json   # chrome://tracing format
    python -m repro run F3 --profile               # hottest-subsystem table
    python -m repro run F3 --metrics-out m.json    # metrics registry snapshot
    python -m repro run F3 --json result.json      # ExperimentResult as JSON

Observability v2 (DESIGN.md, "Observability v2")::

    python -m repro run F3 --trace t.jsonl --trace-kinds request,sample
    python -m repro run F3 --trace t.jsonl --trace-stream   # O(buffer) memory
    python -m repro run F3 --trace t.jsonl --flight-recorder 50000
    python -m repro run F3 --trace t.jsonl --slo   # SLO compliance table
    python -m repro report t.jsonl -o report.html  # self-contained HTML

``--trace-kinds`` keeps only the named record kinds; ``--trace-stream``
spills the trace to its JSONL file incrementally instead of holding it in
memory; ``--flight-recorder N`` keeps only the last N records (a ring
buffer); ``--slo`` evaluates the default service-level objectives over the
trace and prints the compliance table (breach/burn-rate records are
appended to the trace first, so reports see them).

Orchestration-plane observability (DESIGN.md §2.19)::

    python -m repro run A6 --jobs 4 --progress        # live frontier line
    python -m repro run A6 --report-json run.json     # RunReport as JSON
    python -m repro report t.jsonl --run-report run.json -o report.html
    python -m repro diff base.json candidate.json     # perf-regression radar

``--progress`` paints one live stderr line (computed/cached counts, in-flight
nodes, worker deaths and retries) fed by the backend; ``--report-json``
writes the full :class:`~repro.runner.RunReport` (node counts, backend stats,
worker timeline) for ``repro report --run-report`` and ``repro diff``, which
compares two run/report/bench artifacts with tolerance bands and exits 1 on
regressions.

With several experiments (``run all``), per-experiment output files get the
experiment id injected before the suffix (``t-F3.jsonl``).

Every experiment is a pure function of its seed; the printed tables are the
same artefacts the benchmark harness records in ``benchmarks/results/``.
Instrumentation never changes them: tracing and metrics only *observe*.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro import obs as obs_mod
from repro.core.middleware import KERNELS, resolve_kernel

__all__ = ["main", "EXPERIMENTS"]


def _registry() -> Dict[str, Tuple[str, Callable]]:
    from repro.experiments import (
        a1_cluster_formation,
        a2_resilience,
        a3_crypto_heater,
        a4_demand_response,
        a5_seasonal_sla,
        a6_churn,
        e1_pue,
        e2_edge_latency,
        e3_seasonal_capacity,
        e4_architectures,
        e5_peak_policies,
        e6_heat_regulator,
        e7_heat_island,
        e8_thermosensitivity,
        e9_baselines,
        e10_app_classes,
        e11_availability,
        e12_aging,
        e13_cold_start,
        e14_scale,
        f3_three_flows,
        fig4_temperature,
    )

    return {
        "F4": ("Paper Fig. 4: monthly room temperature", fig4_temperature.run),
        "F3": ("Paper Fig. 3: three flows on one fleet", f3_three_flows.run),
        "E1": ("PUE: data furnace vs datacenter", e1_pue.run),
        "E2": ("Edge latency per path/protocol", e2_edge_latency.run),
        "E3": ("Seasonal capacity and pricing", e3_seasonal_capacity.run),
        "E4": ("Shared vs dedicated architectures", e4_architectures.run),
        "E5": ("Peak policies: preempt/offload/delay", e5_peak_policies.run),
        "E6": ("DVFS heat regulator", e6_heat_regulator.run),
        "E7": ("Urban heat island waste heat", e7_heat_island.run),
        "E8": ("Thermosensitivity prediction", e8_thermosensitivity.run),
        "E9": ("Baseline comparison", e9_baselines.run),
        "E10": ("Application-class suitability", e10_app_classes.run),
        "E11": ("Availability vs host behaviour", e11_availability.run),
        "E12": ("Processor aging under free cooling", e12_aging.run),
        "E13": ("Service-stack container cold starts", e13_cold_start.run),
        "E14": ("Weak scaling: QoS vs city size", e14_scale.run),
        "A1": ("Ablation: cluster formation", a1_cluster_formation.run),
        "A2": ("Extension: fault resilience", a2_resilience.run),
        "A3": ("Extension: crypto-heater economics", a3_crypto_heater.run),
        "A4": ("Extension: demand response", a4_demand_response.run),
        "A5": ("Extension: seasonal SLAs + planning", a5_seasonal_sla.run),
        "A6": ("Extension: recovery policy Pareto frontier under churn",
               a6_churn.run),
    }


#: experiment id → (description, run callable); populated lazily in main()
EXPERIMENTS: Dict[str, Tuple[str, Callable]] = {}


def _out_path(base: str, eid: str, multi: bool) -> Path:
    """Output path for one experiment: inject the id when running several."""
    p = Path(base)
    if multi:
        p = p.with_name(f"{p.stem}-{eid}{p.suffix}")
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _parse_kinds(spec: Optional[str]):
    """``--trace-kinds request,sample`` → frozenset, or None when unset."""
    if not spec:
        return None
    kinds = frozenset(k.strip() for k in spec.split(",") if k.strip())
    return kinds or None


def _progress_printer(eid: str):
    """Live one-line progress feed on stderr (``repro run --progress``)."""
    def emit(ev: Dict[str, object]) -> None:
        if ev.get("phase") == "plan":
            line = (f"{eid}: {ev.get('points', 0)} points — "
                    f"{ev.get('cached', 0)} cached, "
                    f"{ev.get('pending', 0)} pending")
        else:
            line = (f"{eid}: {ev.get('done', 0)}/{ev.get('total', 0)} "
                    f"computed · {ev.get('inflight', 0)} in flight · "
                    f"{ev.get('workers', 1)} worker(s)")
            if ev.get("deaths"):
                line += f" · {ev['deaths']} worker death(s)"
            if ev.get("retries"):
                line += f" · {ev['retries']} retried"
        print(f"\r\x1b[2K{line}", end="", file=sys.stderr, flush=True)
    return emit


def _build_obs(args, eid: str, multi: bool) -> Optional[obs_mod.Observability]:
    """Observability bundle for one experiment run, or None when all flags off."""
    want_trace = args.trace or args.chrome_trace or args.slo
    if not (want_trace or args.profile or args.metrics_out):
        return None
    tracer = None
    if want_trace:
        kinds = _parse_kinds(args.trace_kinds)
        if args.trace_stream:
            # stream straight into the final per-experiment path: bounded
            # memory, and write_jsonl() later is just a flush
            tracer = obs_mod.JsonlTracer(_out_path(args.trace, eid, multi),
                                         kinds=kinds)
        elif args.flight_recorder:
            tracer = obs_mod.RingTracer(capacity=args.flight_recorder,
                                        kinds=kinds)
        else:
            tracer = obs_mod.Tracer(kinds=kinds)
    return obs_mod.Observability(
        tracer=tracer,
        registry=obs_mod.MetricsRegistry() if args.metrics_out else None,
        profiler=obs_mod.Profiler() if args.profile else None,
    )


def _write_artefacts(args, obs: Optional[obs_mod.Observability],
                     result, eid: str, multi: bool) -> None:
    """Export the per-experiment artefacts requested on the command line."""
    from repro.metrics.export import metrics_to_json, to_json

    if args.json is not None and hasattr(result, "experiment_id"):
        p = to_json(result, _out_path(args.json, eid, multi))
        print(f"  result json → {p}")
    if obs is None:
        return
    if args.slo:
        from repro.obs.slo import SLOEngine

        # evaluate BEFORE exporting so slo.breach / slo.burn_rate records
        # land in the written trace
        slo_report = SLOEngine().evaluate(obs.tracer.iter_records(),
                                          tracer=obs.tracer)
        print(slo_report.render())
        print(f"  slo: {'all objectives met' if slo_report.ok else 'FAIL'}")
    if args.trace is not None:
        p = obs.tracer.write_jsonl(_out_path(args.trace, eid, multi))
        print(f"  trace → {p} ({len(obs.tracer)} records)")
    if args.chrome_trace is not None:
        p = obs.tracer.write_chrome_trace(_out_path(args.chrome_trace, eid, multi))
        print(f"  chrome trace → {p}")
    if args.metrics_out is not None:
        p = metrics_to_json(obs.registry, _out_path(args.metrics_out, eid, multi))
        print(f"  metrics → {p} ({len(obs.registry)} series)")
    if args.profile and obs.profiler is not None:
        print(obs.profiler.report())


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    EXPERIMENTS.update(_registry())
    parser = argparse.ArgumentParser(
        prog="repro", description="DF3 reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="experiment id (e.g. F4, E5, A2) or 'all'")
    runp.add_argument("--seed", type=int, default=None, help="override the seed")
    runp.add_argument("--json", metavar="PATH", default=None,
                      help="write the ExperimentResult as JSON")
    runp.add_argument("--trace", metavar="PATH", default=None,
                      help="capture a structured trace as JSONL")
    runp.add_argument("--trace-kinds", metavar="K1,K2", default=None,
                      help="keep only these record kinds (comma-separated, "
                           "e.g. request,sample,slo; default all)")
    runp.add_argument("--trace-stream", action="store_true",
                      help="stream the trace to --trace incrementally "
                           "(bounded memory; requires --trace)")
    runp.add_argument("--flight-recorder", type=int, metavar="N", default=None,
                      help="keep only the last N trace records (ring buffer)")
    runp.add_argument("--slo", action="store_true",
                      help="evaluate default SLOs over the trace and print "
                           "the compliance table")
    runp.add_argument("--chrome-trace", metavar="PATH", default=None,
                      help="capture a trace in Chrome trace-event format")
    runp.add_argument("--profile", action="store_true",
                      help="print per-subsystem wall-clock profile")
    runp.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the metrics registry snapshot as JSON")
    runp.add_argument("--kernel", choices=KERNELS, default=None,
                      help="simulation kernel (default: $REPRO_KERNEL or "
                           "'vector', the exact kernel; surrogate is "
                           "tolerance-budgeted — see repro.thermal.budget)")
    runp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for sweep experiments (default 1)")
    runp.add_argument("--progress", action="store_true",
                      help="live progress line on stderr (frontier / computed"
                           " / cached, worker deaths and retries)")
    runp.add_argument("--report-json", metavar="PATH", default=None,
                      help="write the RunReport (points, nodes, backend "
                           "stats, timings) as JSON")
    runp.add_argument("--no-cache", action="store_true",
                      help="neither read nor write the result cache")
    runp.add_argument("--cache-dir", metavar="PATH",
                      default=os.environ.get("REPRO_CACHE_DIR", ".repro_cache"),
                      help="result cache directory (default .repro_cache, "
                           "or $REPRO_CACHE_DIR when set)")
    srvp = sub.add_parser("serve",
                          help="serve a live digital twin over HTTP (REST + SSE)")
    srvp.add_argument("--host", default="127.0.0.1",
                      help="bind address (default 127.0.0.1)")
    srvp.add_argument("--port", type=int, default=8008,
                      help="bind port (default 8008; 0 picks a free port)")
    srvp.add_argument("--seed", type=int, default=17,
                      help="scenario seed (default 17 — the F3 reference run)")
    srvp.add_argument("--days", type=float, default=1.0,
                      help="simulated days of workload (default 1.0)")
    srvp.add_argument("--month", type=int, default=1,
                      help="start month, 1-12 (default 1: winter)")
    srvp.add_argument("--districts", type=int, default=2,
                      help="city size: number of districts (default 2)")
    srvp.add_argument("--buildings", type=int, default=2,
                      help="buildings per district (default 2)")
    srvp.add_argument("--dc-nodes", type=int, default=8,
                      help="datacenter nodes (default 8)")
    srvp.add_argument("--pace", type=float, default=0.0, metavar="X",
                      help="real seconds per simulated second (default 0: "
                           "free-run as fast as the engine goes)")
    srvp.add_argument("--slice-s", type=float, default=300.0,
                      help="max simulated seconds per engine slice "
                           "(command/pause granularity; default 300)")
    srvp.add_argument("--telemetry-every-s", type=float, default=900.0,
                      help="simulated seconds between SSE telemetry "
                           "publishes (default 900)")
    srvp.add_argument("--flight-recorder", type=int, default=65536, metavar="N",
                      help="trace ring-buffer capacity (default 65536)")
    srvp.add_argument("--start-paused", action="store_true",
                      help="boot holding at t0; resume via POST /api/control")
    srvp.add_argument("--kernel", choices=KERNELS, default=None,
                      help="simulation kernel (default: $REPRO_KERNEL or "
                           "'vector')")
    srvp.add_argument("--verbose", action="store_true",
                      help="log one line per HTTP request")
    repp = sub.add_parser("report",
                          help="render a trace into a self-contained HTML report")
    repp.add_argument("trace", help="JSONL trace file (from run --trace)")
    repp.add_argument("-o", "--out", metavar="PATH", default="report.html",
                      help="output HTML file (default report.html)")
    repp.add_argument("--title", default=None,
                      help="report title (default: derived from the trace name)")
    repp.add_argument("--slowest", type=int, default=5, metavar="N",
                      help="span waterfalls for the N slowest requests")
    repp.add_argument("--run-report", metavar="PATH", default=None,
                      help="RunReport JSON (from run --report-json) to render "
                           "as the orchestration Gantt/counters panel")
    difp = sub.add_parser(
        "diff", help="perf-regression radar: structurally compare two "
                     "run/report/bench JSON artifacts with tolerance bands")
    difp.add_argument("base", help="baseline artifact (JSON or JSONL)")
    difp.add_argument("candidate", help="candidate artifact to compare")
    difp.add_argument("--rel-tol", type=float, default=0.2, metavar="F",
                      help="relative tolerance band for timing/speedup keys "
                           "(default 0.2 = ±20%%)")
    difp.add_argument("--abs-floor", type=float, default=0.25, metavar="F",
                      help="ignore timing deltas smaller than this absolute "
                           "amount (default 0.25)")
    difp.add_argument("--json", metavar="PATH", default=None,
                      help="also write the diff report as JSON")
    args = parser.parse_args(argv)
    with _kernel_env(getattr(args, "kernel", None)):
        return _run_command(args)


@contextmanager
def _kernel_env(kernel: Optional[str]):
    """Export ``--kernel`` as ``$REPRO_KERNEL`` for one command.

    Sweep worker processes inherit the choice through the environment; the
    caller's value (or its absence) is restored on the way out, so an
    in-process ``main([...])`` never changes the kernel of later cities.
    """
    if kernel is None:
        yield
        return
    old = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = old


def _run_command(args) -> int:
    """Execute one parsed command; returns a process exit code."""
    if args.command in ("run", "serve"):
        try:
            resolve_kernel(args.kernel)     # also vets $REPRO_KERNEL
        except ValueError as exc:
            print(f"bad kernel: {exc}", file=sys.stderr)
            return 2

    if args.command == "serve":
        from repro.service import ScenarioConfig, TwinConfig, build_twin, serve

        try:
            twin = build_twin(
                ScenarioConfig(seed=args.seed, month=args.month,
                               duration_days=args.days,
                               n_districts=args.districts,
                               buildings_per_district=args.buildings,
                               dc_nodes=args.dc_nodes),
                TwinConfig(slice_s=args.slice_s,
                           telemetry_every_s=args.telemetry_every_s,
                           pace=args.pace,
                           ring_capacity=args.flight_recorder,
                           start_paused=args.start_paused),
            )
        except ValueError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
        scen = twin.scenario
        print(f"serving DF3 twin on http://{args.host}:{args.port or '?'} — "
              f"{scen.config.n_districts} districts, "
              f"{sum(scen.submitted.values())} requests over "
              f"{args.days:g} sim-days")
        print("  dashboard: /   health: /healthz   stream: /events   "
              "state: /api/state")
        try:
            serve(twin, host=args.host, port=args.port, verbose=args.verbose)
        except KeyboardInterrupt:
            print("\nshutting down")
        except OSError as exc:
            print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "report":
        from repro.obs.report import report_from_jsonl

        trace = Path(args.trace)
        if not trace.exists():
            print(f"no such trace file: {trace}", file=sys.stderr)
            return 2
        run_report = None
        if args.run_report is not None:
            rr = Path(args.run_report)
            if not rr.exists():
                print(f"no such run report: {rr}", file=sys.stderr)
                return 2
            run_report = json.loads(rr.read_text(encoding="utf-8"))
        title = args.title or f"DF3 run report — {trace.stem}"
        p = report_from_jsonl(trace, args.out, title=title,
                              slowest_n=args.slowest, run_report=run_report)
        print(f"report → {p} ({p.stat().st_size / 1024:.0f} KiB)")
        return 0

    if args.command == "diff":
        from repro.obs.diff import diff_files

        try:
            diff = diff_files(args.base, args.candidate,
                              rel_tol=args.rel_tol, abs_floor=args.abs_floor)
        except (OSError, ValueError) as exc:
            print(f"cannot diff: {exc}", file=sys.stderr)
            return 2
        if args.json is not None:
            out = Path(args.json)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(diff.to_dict(), indent=2,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
        print(diff.render())
        return 0 if diff.ok else 1

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key, (desc, _) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {desc}")
        return 0

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.trace_stream and not args.trace:
        print("--trace-stream needs --trace PATH", file=sys.stderr)
        return 2
    if args.trace_stream and args.flight_recorder:
        print("--trace-stream and --flight-recorder are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.flight_recorder is not None and args.flight_recorder < 1:
        print(f"--flight-recorder must be >= 1, got {args.flight_recorder}",
              file=sys.stderr)
        return 2
    ids = list(EXPERIMENTS) if args.experiment.lower() == "all" else [args.experiment.upper()]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; try 'repro list'",
              file=sys.stderr)
        return 2
    multi = len(ids) > 1
    from repro.runner import ResultCache, SweepRunner

    cache = None if args.no_cache else ResultCache(Path(args.cache_dir))
    for eid in ids:
        _, fn = EXPERIMENTS[eid]
        kwargs = {}
        if args.seed is not None and \
                "seed" in inspect.signature(fn).parameters:
            kwargs["seed"] = args.seed      # E6's run() takes no seed
        obs = _build_obs(args, eid, multi)  # fresh bundle per experiment
        # an instrumented run must execute to have something to observe
        runner = SweepRunner(jobs=args.jobs,
                             cache=None if obs is not None else cache,
                             progress=(_progress_printer(eid)
                                       if args.progress else None))
        t0 = time.time()
        with obs_mod.obs_session(obs) if obs is not None else nullcontext():
            report = runner.run_experiment(fn, **kwargs)
        if args.progress:
            print(file=sys.stderr)      # finish the live progress line
        result = report.result
        print(result)
        if report.points:
            detail = (f"; {report.points} points: "
                      f"{report.computed} computed, {report.cached} cached")
        else:
            detail = "; result cached" if report.cached else ""
        print(f"({eid} completed in {time.time() - t0:.1f}s{detail})")
        if args.report_json is not None:
            if not report.experiment:       # non-sweep runs don't know it
                report.experiment = eid
            rp = _out_path(args.report_json, eid, multi)
            rp.write_text(json.dumps(report.to_dict(), indent=2,
                                     sort_keys=True) + "\n", encoding="utf-8")
            print(f"  run report → {rp}")
        _write_artefacts(args, obs, result, eid, multi)
        print()
    if cache is not None and cache.stats.hits + cache.stats.misses:
        print(f"cache {args.cache_dir}: {cache.stats}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
