"""BackendStats bookkeeping and deterministic runner node spans.

The orchestration-plane observability contract (DESIGN.md §2.19) splits
runner telemetry in two:

* **deterministic spans in the trace** — every computed node of a traced
  dag sweep gets exactly one ``runner.node`` record (ts = execution
  ordinal, never a wall time) plus one ``runner.sweep`` summary, and the
  runner-kind records are identical at any jobs count;
* **wall-clock telemetry in BackendStats** — timeline rows, queue/steal
  counters and heartbeat bookkeeping describe *how* one particular
  execution went, survive a ``to_dict`` round-trip for
  ``RunReport.to_dict()``, and stay out of the trace entirely.

The fault-injection tests reuse the kill-a-worker cells from
``test_runner_graph`` to check the counters tell the true story: one
death, one retry, one respawn, heartbeats fresh across the respawn.
"""

from __future__ import annotations

import time

import pytest

from repro import obs as O
from repro.experiments import e14_scale
from repro.runner import SweepRunner
from repro.runner.backend import BackendStats, InlineBackend, ProcessBackend
from repro.runner.graph import TaskGraph, TaskNode

pytestmark = pytest.mark.dag


def _fanout_graph() -> TaskGraph:
    """One shared prefix feeding three points (cells from test_runner_graph)."""
    return TaskGraph(
        [TaskNode("S", "shared", "tests.test_runner_graph:_double",
                  params=(("x", 21),), kind="prefix")]
        + [TaskNode("S", f"point-{i}", "tests.test_runner_graph:_add",
                    params=(("bias", i),), needs=(("a", "shared"),))
           for i in range(3)]
    )


def _traced_sweep(jobs: int):
    tracer = O.Tracer()
    with O.obs_session(O.Observability(tracer=tracer)) as obs:
        report = SweepRunner(jobs=jobs, obs=obs).run_spec(
            e14_scale.SWEEP)
    return report, [r.to_dict() for r in tracer.iter_records()]


# --------------------------------------------------------------------------- #
# deterministic runner spans in the trace
# --------------------------------------------------------------------------- #
def test_every_computed_node_gets_exactly_one_span():
    """100% span coverage: one runner.node per computed node, ordinal ts."""
    report, trace = _traced_sweep(jobs=1)
    spans = [r for r in trace if r["name"] == "runner.node"]
    assert len(spans) == report.computed_nodes > 0
    assert [s["args"]["seq"] for s in spans] == list(range(len(spans)))
    assert [s["ts"] for s in spans] == [float(i) for i in range(len(spans))]
    assert all(s["kind"] == "runner" for s in spans)
    assert all(s["args"]["status"] == "computed" for s in spans)
    assert all(s["args"]["experiment"] == "E14" for s in spans)
    # distinct nodes — no span is double-counted toward coverage
    assert len({s["args"]["node"] for s in spans}) == len(spans)

    summaries = [r for r in trace if r["name"] == "runner.sweep"]
    assert len(summaries) == 1
    assert summaries[0]["args"]["executed"] == report.computed_nodes
    assert summaries[0]["args"]["points"] == report.computed
    assert summaries[0]["args"]["graph_nodes"] == report.nodes


def test_runner_spans_identical_across_jobs_counts():
    """The runner-kind record stream is a pure function of the graph."""
    report1, trace1 = _traced_sweep(jobs=1)
    report4, trace4 = _traced_sweep(jobs=4)
    runner1 = [r for r in trace1 if r["kind"] == "runner"]
    runner4 = [r for r in trace4 if r["kind"] == "runner"]
    assert runner1 == runner4
    node_spans = [r for r in runner4 if r["name"] == "runner.node"]
    assert len(node_spans) == report4.computed_nodes == report1.computed_nodes


def test_obs_off_and_kind_filtered_runs_stay_span_free():
    """Spans are gated: obs-off costs nothing, allowlists drop runner kind."""
    graph = _fanout_graph()
    stats = InlineBackend(obs=O.Observability()).execute(
        graph, graph.node_ids, {}, lambda nid, v: None)
    assert stats.executed == len(graph)

    tracer = O.Tracer(kinds=["request"])     # runner kind not in allowlist
    stats = InlineBackend(obs=O.Observability(tracer=tracer)).execute(
        graph, graph.node_ids, {}, lambda nid, v: None)
    assert stats.executed == len(graph)
    assert all(r.kind != "runner" for r in tracer.iter_records())


# --------------------------------------------------------------------------- #
# wall-clock telemetry: timeline rows and counters
# --------------------------------------------------------------------------- #
def test_inline_backend_timeline_is_graph_ordered():
    graph = _fanout_graph()
    values: dict = {}
    stats = InlineBackend().execute(graph, graph.node_ids, values,
                                    lambda nid, v: None)
    assert values["shared"] == 42
    assert values["point-2"] == 44
    assert stats.executed == 4
    assert stats.nodes_per_worker == {0: 4}
    assert stats.queue_depth_peak == 1
    assert [row["node"] for row in stats.timeline] == graph.order()
    assert [row["kind"] for row in stats.timeline] == \
        ["prefix", "point", "point", "point"]
    for row in stats.timeline:
        assert row["worker"] == 0 and row["attempts"] == 1
        assert 0.0 <= row["start_s"] <= row["done_s"]
        assert row["wall_s"] >= 0.0


def test_process_backend_timeline_records_worker_lifecycle():
    graph = _fanout_graph()
    backend = ProcessBackend(jobs=2, chunk_size=1, poll_s=0.05)
    values: dict = {}
    stats = backend.execute(graph, graph.node_ids, values,
                            lambda nid, v: None)
    assert values["point-1"] == 43
    assert stats.executed == 4
    assert stats.chunks_dispatched >= 4          # chunk_size=1: one per node
    assert stats.chunk_steals >= 4               # every chunk claim-acked
    assert stats.queue_depth_peak >= 1
    assert sum(stats.nodes_per_worker.values()) == stats.executed
    # timeline is finalized in deterministic graph order, whatever the
    # completion interleaving was
    assert [row["node"] for row in stats.timeline] == graph.order()
    for row in stats.timeline:
        assert row["attempts"] == 1
        assert row["worker"] in stats.nodes_per_worker
        assert row["enqueue_s"] <= row["claim_s"] <= row["done_s"]
        assert row["start_s"] <= row["done_s"]
        assert row["wall_s"] >= 0.0


def test_deterministic_stats_fields_match_across_jobs():
    """executed and the timeline's (node, kind) sequence are jobs-invariant."""
    reports = {jobs: SweepRunner(jobs=jobs).run_spec(
        e14_scale.SWEEP) for jobs in (1, 4)}
    s1, s4 = reports[1].backend_stats, reports[4].backend_stats
    assert s1 is not None and s4 is not None
    assert s1.executed == s4.executed == reports[4].computed_nodes
    assert [(r["node"], r["kind"]) for r in s1.timeline] == \
        [(r["node"], r["kind"]) for r in s4.timeline]
    assert sum(s4.nodes_per_worker.values()) == s4.executed
    assert s4.duplicate_results == 0
    assert reports[1].result.text == reports[4].result.text


# --------------------------------------------------------------------------- #
# fault injection: counters and heartbeats under a worker kill
# --------------------------------------------------------------------------- #
def test_injected_kill_counters_and_heartbeat_freshness(tmp_path):
    t_start = time.time()
    graph = TaskGraph(
        [TaskNode("F", "fragile", "tests.test_runner_graph:_fragile_cell",
                  params=(("tag", "fragile"), ("flag_dir", str(tmp_path))))]
        + [TaskNode("F", f"plain-{i}", "tests.test_runner_graph:_add",
                    params=(("a", i),)) for i in range(3)]
    )
    backend = ProcessBackend(jobs=2, chunk_size=1, poll_s=0.05,
                             stall_timeout_s=3.0)
    values: dict = {}
    stats = backend.execute(graph, graph.node_ids, values,
                            lambda nid, v: None)
    t_end = time.time()

    assert values["fragile"] == "ok-fragile"
    assert stats.executed == 4
    assert stats.worker_deaths == 1
    assert stats.retried_nodes == 1
    assert stats.respawned_workers == 1
    assert stats.chunks_dispatched >= 5          # 4 chunks + the re-enqueue
    assert stats.chunk_steals >= 4
    assert stats.heartbeat_max_staleness_s >= 0.0

    fragile_row = next(r for r in stats.timeline if r["node"] == "fragile")
    assert fragile_row["attempts"] >= 2          # killed once, retried clean

    # heartbeat monotonicity across the respawn: the replacement slot shows
    # up in the bookkeeping, and every recorded beat — including the dead
    # worker's frozen last one — falls inside this execution's wall window
    assert set(stats.last_heartbeat) >= {0, 1, 2}
    for beat in stats.last_heartbeat.values():
        assert t_start <= beat <= t_end
    # a live worker beat after the death was detected
    assert max(stats.last_heartbeat.values()) >= \
        min(stats.last_heartbeat.values())


# --------------------------------------------------------------------------- #
# serialization: BackendStats round-trips for RunReport.to_dict()
# --------------------------------------------------------------------------- #
def test_backend_stats_round_trip_from_real_run():
    graph = _fanout_graph()
    stats = InlineBackend().execute(graph, graph.node_ids, {},
                                    lambda nid, v: None)
    d = stats.to_dict()
    assert BackendStats.from_dict(d).to_dict() == d
    assert d["nodes_per_worker"] == {"0": 4}     # JSON-safe string keys


def test_backend_stats_round_trip_all_fields():
    stats = BackendStats(
        executed=7, chunks_dispatched=5, chunk_steals=6, queue_depth_peak=3,
        worker_deaths=1, retried_nodes=1, respawned_workers=1,
        duplicate_results=2, heartbeat_max_staleness_s=0.125,
        nodes_per_worker={0: 4, 3: 3}, last_heartbeat={0: 12.5, 3: 13.75},
        timeline=[{"node": "a", "kind": "point", "worker": 3, "attempts": 2,
                   "enqueue_s": 0.0, "claim_s": 0.1, "start_s": 0.1,
                   "done_s": 0.4, "wall_s": 0.3}],
    )
    restored = BackendStats.from_dict(stats.to_dict())
    assert restored == stats
    assert restored.to_dict() == stats.to_dict()
