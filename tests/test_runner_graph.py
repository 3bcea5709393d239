"""Task-DAG executor: graph properties, node keys, and fault injection.

Three groups, all ``dag``-marked:

* **hypothesis properties of TaskGraph** — on randomly generated DAGs,
  ``order()`` is always a valid topological order, ``ready()`` never yields a
  node before its upstreams, execution in *any* valid order reassembles to
  the same values, and cycles raise :class:`GraphCycleError` cleanly instead
  of hanging a scheduler;
* **node keys** — content-addressed recursively: editing a prefix re-keys
  every transitive consumer and nothing else;
* **fault injection for ProcessBackend** — a worker killed mid-node is
  retried on another worker exactly once; a node that keeps killing its
  workers exhausts the retry budget and raises; a deterministic cell
  exception aborts without retry.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import SweepRunner
from repro.runner.backend import (
    NodeExecutionError,
    ProcessBackend,
    WorkerCrashError,
)
from repro.runner.graph import GraphCycleError, TaskGraph, TaskNode, node_key

pytestmark = pytest.mark.dag


# --------------------------------------------------------------------------- #
# cells executed by pool workers (module-level → import by reference)
# --------------------------------------------------------------------------- #
def _double(x: int) -> int:
    return 2 * x


def _add(a: int = 0, b: int = 0, bias: int = 0) -> int:
    return a + b + bias


def _fragile_cell(tag: str, flag_dir: str) -> str:
    """Dies with its whole worker process on the first attempt only."""
    flag = Path(flag_dir) / f"{tag}.attempted"
    if not flag.exists():
        flag.write_text("attempted")
        time.sleep(0.3)   # let the claim/start messages flush to the parent
        os._exit(42)      # hard kill: no exception, no cleanup, no result
    return f"ok-{tag}"


def _doomed_cell(flag_dir: str) -> str:
    """Kills every worker that ever runs it — exhausts any retry budget."""
    time.sleep(0.3)
    os._exit(42)


def _raising_cell(tag: str) -> None:
    raise ValueError(f"deterministic failure in {tag}")


# --------------------------------------------------------------------------- #
# random DAG strategy: node i may depend on any subset of nodes 0..i-1,
# so generated graphs are acyclic by construction
# --------------------------------------------------------------------------- #
@st.composite
def dags(draw) -> TaskGraph:
    n = draw(st.integers(min_value=1, max_value=10))
    graph = TaskGraph()
    for i in range(n):
        uplinks = draw(st.lists(st.integers(min_value=0, max_value=i - 1),
                                unique=True, max_size=3)) if i else []
        graph.add(TaskNode(
            experiment_id="PROP", node_id=f"n{i}", cell="m:f",
            params=(("i", i),),
            needs=tuple((f"up{j}", f"n{j}") for j in uplinks),
            kind="prefix" if not uplinks and draw(st.booleans()) else "point",
        ))
    return graph


@given(dags())
def test_order_is_a_valid_topological_order(graph):
    order = graph.order()
    assert sorted(order) == sorted(graph.node_ids)     # a permutation
    position = {nid: i for i, nid in enumerate(order)}
    for node in graph:
        for up in node.upstream_ids:
            assert position[up] < position[node.node_id]


@given(dags())
def test_order_is_deterministic(graph):
    assert graph.order() == graph.order()


@given(dags())
def test_ready_never_yields_a_node_before_its_upstreams(graph):
    """Draining the ready frontier one node at a time is always safe."""
    done: set = set()
    while len(done) < len(graph):
        frontier = graph.ready(done)
        assert frontier, "non-empty DAG must always have a ready node"
        nid = frontier[0]
        assert all(up in done for up in graph[nid].upstream_ids)
        assert nid not in done
        done.add(nid)
    assert graph.ready(done) == []


@given(dags(), st.randoms())
def test_execution_order_cannot_leak_into_values(graph, rnd):
    """Any upstream-respecting execution order yields identical values.

    This is the reassembly half of the byte-identity contract: the work-
    stealing backend may complete nodes in any interleaving, and the values
    (here: a pure function of each node's params and upstream values) are
    the same as the deterministic inline order's.
    """
    def run_in(order):
        values = {}
        for nid in order:
            node = graph[nid]
            upstream_sum = sum(values[up] for up in node.upstream_ids)
            values[nid] = dict(node.params)["i"] + 10 * upstream_sum
        return values

    reference = run_in(graph.order())
    # a random valid schedule: repeatedly pick any ready node
    done: set = set()
    shuffled = []
    while len(done) < len(graph):
        nid = rnd.choice(graph.ready(done))
        shuffled.append(nid)
        done.add(nid)
    assert run_in(shuffled) == reference


def test_cycle_detection_raises_cleanly():
    graph = TaskGraph([
        TaskNode("X", "a", "m:f", needs=(("v", "b"),)),
        TaskNode("X", "b", "m:f", needs=(("v", "a"),)),
        TaskNode("X", "c", "m:f"),
    ])
    with pytest.raises(GraphCycleError) as err:
        graph.order()
    assert set(err.value.members) == {"a", "b"}
    with pytest.raises(GraphCycleError):
        graph.validate()


def test_dangling_edge_is_rejected():
    graph = TaskGraph([TaskNode("X", "a", "m:f", needs=(("v", "ghost"),))])
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        graph.order()


def test_node_validation():
    with pytest.raises(ValueError, match="module:function"):
        TaskNode("X", "a", "not-a-ref")
    with pytest.raises(ValueError, match="kind"):
        TaskNode("X", "a", "m:f", kind="other")
    with pytest.raises(ValueError, match="share kwarg names"):
        TaskNode("X", "a", "m:f", params=(("v", 1),), needs=(("v", "b"),))
    with pytest.raises(ValueError, match="duplicate node id"):
        TaskGraph([TaskNode("X", "a", "m:f"), TaskNode("X", "a", "m:f")])


def test_execute_requires_upstream_values():
    node = TaskNode("X", "a", "tests.test_runner_graph:_add",
                    needs=(("a", "up"),))
    with pytest.raises(KeyError, match="needs upstream 'up'"):
        node.execute({})
    assert node.execute({"up": 3}) == 3


# --------------------------------------------------------------------------- #
# node keys: recursive content addressing
# --------------------------------------------------------------------------- #
def _prefix_fanout(bias: int = 0) -> TaskGraph:
    return TaskGraph([
        TaskNode("K", "shared", "tests.test_runner_graph:_double",
                 params=(("x", 21 + bias),), kind="prefix"),
        TaskNode("K", "left", "tests.test_runner_graph:_add",
                 needs=(("a", "shared"),)),
        TaskNode("K", "right", "tests.test_runner_graph:_add",
                 params=(("bias", 1),), needs=(("a", "shared"),)),
        TaskNode("K", "lonely", "tests.test_runner_graph:_add",
                 params=(("a", 5),)),
    ])


def test_editing_a_prefix_rekeys_its_consumers_only():
    before = _prefix_fanout()
    after = _prefix_fanout(bias=1)   # the prefix's params changed
    changed = {nid for nid in before.node_ids
               if node_key(before, nid) != node_key(after, nid)}
    assert changed == {"shared", "left", "right"}   # lonely is untouched


def _key_of(node: TaskNode) -> str:
    return node_key(TaskGraph([node]), node.node_id)


def test_node_keys_separate_siblings_and_kinds():
    graph = _prefix_fanout()
    keys = {node_key(graph, nid) for nid in graph.node_ids}
    assert len(keys) == 4
    # same spec, different kind → different key
    as_point = TaskGraph([TaskNode("K", "shared",
                                   "tests.test_runner_graph:_double",
                                   params=(("x", 21),), kind="point")])
    assert node_key(as_point, "shared") != node_key(graph, "shared")
    # the key moves with every field of the spec that can change a value
    base = TaskNode("E4", "steady/shared",
                    "repro.experiments.e4_architectures:_scenario",
                    params=(("seed", 23), ("burst", False)))
    variants = [
        TaskNode("E4", "steady/shared", base.cell,
                 params=(("seed", 24), ("burst", False))),
        TaskNode("E5", "steady/shared", base.cell, params=base.params),
        TaskNode("E4", "steady/shared",
                 "repro.experiments.e14_scale:_scale_point",
                 params=base.params),
    ]
    assert len({_key_of(n) for n in [base, *variants]}) == 4
    # ...and only with those: param order is canonical and the node id is
    # not key material, so equal specs share one cache entry
    reordered = TaskNode("E4", "burst/shared", base.cell,
                         params=(("burst", False), ("seed", 23)))
    assert _key_of(reordered) == _key_of(base)


def test_node_key_memo_is_consistent():
    graph = _prefix_fanout()
    memo: dict = {}
    keys = [node_key(graph, nid, memo) for nid in graph.node_ids]
    assert keys == [node_key(graph, nid) for nid in graph.node_ids]
    assert set(memo) == set(graph.node_ids)


# --------------------------------------------------------------------------- #
# fault injection: ProcessBackend under worker death
# --------------------------------------------------------------------------- #
def _execute(backend: ProcessBackend, graph: TaskGraph):
    values: dict = {}
    completions: list = []
    stats = backend.execute(graph, graph.node_ids, values,
                            lambda nid, value: completions.append(nid))
    return values, completions, stats


def test_worker_killed_mid_node_is_retried_exactly_once(tmp_path):
    graph = TaskGraph(
        [TaskNode("F", "fragile", "tests.test_runner_graph:_fragile_cell",
                  params=(("tag", "fragile"), ("flag_dir", str(tmp_path))))]
        + [TaskNode("F", f"plain-{i}", "tests.test_runner_graph:_add",
                    params=(("a", i),)) for i in range(3)]
    )
    backend = ProcessBackend(jobs=2, chunk_size=1, poll_s=0.05,
                             stall_timeout_s=3.0)
    values, completions, stats = _execute(backend, graph)

    assert values["fragile"] == "ok-fragile"
    assert {f"plain-{i}": i for i in range(3)}.items() <= values.items()
    assert sorted(completions) == sorted(graph.node_ids)
    assert stats.executed == 4
    assert stats.worker_deaths == 1      # only the fragile node's first host
    assert stats.retried_nodes == 1      # retried exactly once, elsewhere
    # the flag file proves the cell genuinely ran twice: one killed attempt,
    # one clean one (a third would have tripped the retry budget and raised)
    assert [f.name for f in tmp_path.glob("*.attempted")] == \
        ["fragile.attempted"]


def test_node_that_keeps_killing_workers_exhausts_retry_budget(tmp_path):
    graph = TaskGraph([
        TaskNode("F", "doomed", "tests.test_runner_graph:_doomed_cell",
                 params=(("flag_dir", str(tmp_path)),)),
    ])
    backend = ProcessBackend(jobs=1, poll_s=0.05, stall_timeout_s=3.0,
                             retry_limit=1)
    with pytest.raises(WorkerCrashError):
        _execute(backend, graph)


def test_deterministic_cell_exception_aborts_without_retry():
    graph = TaskGraph([
        TaskNode("F", "boom", "tests.test_runner_graph:_raising_cell",
                 params=(("tag", "boom"),)),
    ])
    backend = ProcessBackend(jobs=2, poll_s=0.05)
    with pytest.raises(NodeExecutionError, match="deterministic failure"):
        _execute(backend, graph)


# --------------------------------------------------------------------------- #
# the acceptance assertion: A6's shared prefix is computed exactly once
# --------------------------------------------------------------------------- #
def test_a6_dag_computes_shared_prefix_exactly_once(monkeypatch):
    """The real A6 graph shape with stubbed cells: 21 points, 1 prefix node,
    and a DAG run executes the prefix exactly once (node counts prove it)."""
    import repro.experiments.a6_churn as a6

    calls = {"plan": 0, "cell": 0}

    def fake_plan(seed):
        calls["plan"] += 1
        return ("plan", seed)

    def fake_cell(seed, mtbf_s, recovery, plan=None):
        calls["cell"] += 1
        assert plan == ("plan", seed)   # the injected prefix value arrived
        return {"mtbf_s": mtbf_s}

    monkeypatch.setattr(a6, "_workload_plan", fake_plan)
    monkeypatch.setattr(a6, "_run_cell", fake_cell)

    from repro.runner.spec import SweepSpec
    # the real A6 decomposition (points, prefix, needs edges) with a pass-
    # through reduce, so the stub cell values don't have to mimic sim rows
    spec = SweepSpec("A6", points=a6.sweep_points,
                     reduce=lambda cells, seed=101: cells,
                     prefixes=a6.sweep_prefixes)
    report = SweepRunner(jobs=1).run_spec(spec, seed=101)
    assert report.points == 21
    assert report.nodes == 22            # 21 grid cells + 1 shared prefix
    assert report.computed_nodes == 22
    assert calls == {"plan": 1, "cell": 21}
