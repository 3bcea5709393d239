"""Common scheduler machinery for both architecture classes.

A scheduler owns a cluster's queues and the request↔task mapping.  Subclasses
only define which workers are eligible for each flow; saturation handling
(what to do when an edge request finds no free cores — paper §III-B's
preemption / offloading / delay menu) is implemented here once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

from repro.core.cluster import Cluster
from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.core.scheduling.queues import EDFQueue, FCFSQueue
from repro.hardware.server import ComputeServer, Task
from repro.obs import get_obs

__all__ = ["SaturationPolicy", "SchedulerStats", "BaseScheduler"]


class SaturationPolicy(str, Enum):
    """What to do with an edge request when eligible workers are full."""

    QUEUE = "queue"          # EDF-queue it and hope (the 'delay' option)
    PREEMPT = "preempt"      # preempt DCC work (§III-B solution 1)
    VERTICAL = "vertical"    # offload to the datacenter (§III-B solution 2a)
    HORIZONTAL = "horizontal"  # offload to a peer cluster (§III-B solution 2b)
    DECISION = "decision"    # delegate to the automated decision system


@dataclass
class SchedulerStats:
    """Counters exposed for experiments."""

    edge_submitted: int = 0
    edge_placed_immediately: int = 0
    edge_queued: int = 0
    edge_expired: int = 0
    edge_preemptions_triggered: int = 0
    edge_offloaded_vertical: int = 0
    edge_offloaded_horizontal: int = 0
    cloud_submitted: int = 0
    cloud_queued: int = 0
    cloud_preempted: int = 0
    cloud_offloaded_vertical: int = 0


class BaseScheduler(ABC):
    """Queues + placement for one cluster.

    Parameters
    ----------
    cluster: the worker pool.
    engine: simulation engine.
    policy: saturation policy for the edge flow.
    offloader: required for VERTICAL/HORIZONTAL/DECISION policies.
    decision_system: required for the DECISION policy.
    worker_priority: optional key function ordering candidate workers
        (the middleware passes heat-wanted-first so compute lands where heat
        is requested).  Placement scans evaluate it only for workers with
        free capacity (see :meth:`_best_worker`).
    obs: optional :class:`repro.obs.Observability` bundle; defaults to the
        process-wide current one (inactive unless installed).
    """

    def __init__(
        self,
        cluster: Cluster,
        engine,
        policy: SaturationPolicy = SaturationPolicy.QUEUE,
        offloader=None,
        decision_system=None,
        worker_priority: Optional[Callable[[ComputeServer], float]] = None,
        obs=None,
    ):
        if policy in (SaturationPolicy.VERTICAL, SaturationPolicy.HORIZONTAL) and offloader is None:
            raise ValueError(f"policy {policy.value} requires an offloader")
        if policy is SaturationPolicy.DECISION and (offloader is None or decision_system is None):
            raise ValueError("DECISION policy requires offloader and decision system")
        self.cluster = cluster
        self.engine = engine
        self.policy = policy
        self.offloader = offloader
        self.decision_system = decision_system
        self.worker_priority = worker_priority
        self.obs = obs if obs is not None else get_obs()
        self.cloud_queue: FCFSQueue[CloudRequest] = FCFSQueue()
        self.edge_queue = EDFQueue()
        self.stats = SchedulerStats()
        self.completed_edge: List[EdgeRequest] = []
        self.completed_cloud: List[CloudRequest] = []
        self.expired_edge: List[EdgeRequest] = []
        #: priority-key evaluations performed by placement scans.  The key
        #: function is the expensive part of a scan (dict lookups + regulator
        #: reads per worker); the perf-regression guard asserts this grows
        #: with the number of workers *with free capacity*, not fleet size.
        self.scan_key_evals = 0

    # ------------------------------------------------------------------ #
    # worker eligibility (architecture classes differ here)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def edge_workers(self) -> Sequence[ComputeServer]:
        """Workers eligible for edge requests."""

    @abstractmethod
    def cloud_workers(self) -> Sequence[ComputeServer]:
        """Workers eligible for cloud requests."""

    def _ordered(self, workers: Sequence[ComputeServer]) -> List[ComputeServer]:
        if self.worker_priority is None:
            return list(workers)
        self.scan_key_evals += len(workers)
        return sorted(workers, key=self.worker_priority)

    def _best_worker(self, workers: Sequence[ComputeServer], cores: int):
        """First worker, in priority order, with ``cores`` free.

        Equivalent to ``self._ordered(workers)`` followed by a first-fit
        probe — ``sorted`` is stable and a strict ``<`` keeps the earliest
        minimum, so the chosen worker is identical — but the priority key is
        only evaluated for workers that can actually host the request, which
        keeps placement scans O(workers with capacity) instead of
        O(fleet · log fleet) in key work.
        """
        key_fn = self.worker_priority
        if key_fn is None:
            for w in workers:
                if w.free_cores >= cores:
                    return w
            return None
        best = None
        best_key = None
        for w in workers:
            if w.free_cores < cores:
                continue
            self.scan_key_evals += 1
            key = key_fn(w)
            if best is None or key < best_key:
                best, best_key = w, key
        return best

    # ------------------------------------------------------------------ #
    # placement primitives
    # ------------------------------------------------------------------ #
    def _make_task(self, req, kind: str) -> Task:
        return Task(
            task_id=req.request_id,
            work_cycles=req.cycles,
            cores=req.cores,
            on_complete=lambda task, now: self._on_task_complete(req, kind, now),
            metadata={"request": req, "kind": kind},
        )

    def _note_placed(self, req, kind: str, worker_name: str) -> None:
        """Record a successful placement on the request and the trace."""
        req.status = RequestStatus.RUNNING
        req.started_at = self.engine.now
        req.executed_on = worker_name
        if kind == "edge":
            group = req.__dict__.get("_clone_group")
            if group is not None:
                # cancel-on-start discipline: the first member to reach a
                # server cancels its sibling before it can burn cycles
                group.on_start(req)
        obs = self.obs
        if obs.active:
            obs.emit_span("request", f"{kind}.scheduled", self.engine.now,
                          ctx=req, id=req.request_id, worker=worker_name,
                          cluster=self.cluster.name)
            obs.counter("requests_scheduled", flow=kind,
                        cluster=self.cluster.name).inc()
            obs.histogram("placement_wait_s", flow=kind).observe(
                self.engine.now - req.time)

    def _try_place(self, req, kind: str, workers: Sequence[ComputeServer]) -> bool:
        w = self._best_worker(workers, req.cores)
        if w is not None and w.submit(self._make_task(req, kind)):
            self._note_placed(req, kind, w.name)
            return True
        # no plain room: evict filler chunks (BOINC-class heat work is always
        # displaceable by paying requests) and retry
        for w in self._ordered(workers):
            if not w.enabled:
                continue
            filler = [t for t in w.running_tasks if t.metadata.get("kind") == "filler"]
            filler_cores = sum(t.cores for t in filler)
            if w.free_cores + filler_cores < req.cores:
                continue
            for t in filler:
                if w.free_cores >= req.cores:
                    break
                w.preempt(t.task_id)
            if w.free_cores >= req.cores and w.submit(self._make_task(req, kind)):
                self._note_placed(req, kind, w.name)
                return True
        return False

    def _on_task_complete(self, req, kind: str, now: float) -> None:
        if kind == "edge":
            group = req.__dict__.get("_clone_group")
            if group is not None:
                req = group.on_complete(req, now)
                if req is None:  # the losing clone: result discarded
                    self.drain()
                    return
        ret = float(req.__dict__.get("_return_delay_s", 0.0))
        if ret > 0:
            self.engine.schedule(ret, lambda: req.mark_completed(self.engine.now))
        else:
            req.mark_completed(now)
        if kind == "edge":
            self.completed_edge.append(req)
        else:
            self.completed_cloud.append(req)
        obs = self.obs
        if obs.active:
            service = now - req.started_at if req.started_at >= 0 else 0.0
            done_at = now + ret  # == completed_at once any return delay lands
            extra = {}
            if kind == "edge":
                extra = {"resp_s": done_at - req.time,
                         "ok": done_at - req.time <= req.deadline_s + 1e-12}
            obs.emit_span("request", f"{kind}.completed", now, ctx=req,
                          dur=service, id=req.request_id,
                          worker=req.executed_on, cluster=self.cluster.name,
                          **extra)
            obs.counter("requests_completed", flow=kind,
                        cluster=self.cluster.name).inc()
            obs.histogram("service_time_s", flow=kind).observe(service)
        self.drain()

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def _note_admitted(self, req, kind: str) -> None:
        obs = self.obs
        if obs.active:
            obs.emit_span("request", f"{kind}.admitted", self.engine.now,
                          ctx=req, id=req.request_id, cluster=self.cluster.name)
            obs.counter("requests_admitted", flow=kind,
                        cluster=self.cluster.name).inc()

    def submit_cloud(self, req: CloudRequest) -> None:
        """Admit a cloud request: place now or FCFS-queue."""
        self.stats.cloud_submitted += 1
        self._note_admitted(req, "cloud")
        if not self._try_place(req, "cloud", self.cloud_workers()):
            req.status = RequestStatus.QUEUED
            self.cloud_queue.push(req)
            self.stats.cloud_queued += 1
            if self.obs.active:
                self.obs.emit_span("request", "cloud.queued", self.engine.now,
                                   ctx=req, id=req.request_id,
                                   cluster=self.cluster.name)
                self.obs.counter("requests_queued", flow="cloud",
                                 cluster=self.cluster.name).inc()

    def reject_edge(self, req: EdgeRequest, reason: str = "rejected") -> None:
        """Terminally fail an edge request (expiry, outage, decision reject).

        Clone-aware: a member of a speculative-clone pair only lands in
        ``expired_edge`` once its sibling is also dead; while the sibling is
        still in flight the failure is silent (first completion may yet win).
        """
        group = req.__dict__.get("_clone_group")
        if group is not None:
            req = group.on_failure(req)
            if req is None:
                return
        req.mark_rejected()
        self.expired_edge.append(req)
        self.stats.edge_expired += 1
        if self.obs.active:
            name = "edge.expired" if reason == "expired" else "edge.rejected"
            self.obs.emit_span("request", name, self.engine.now,
                               ctx=req, id=req.request_id, reason=reason,
                               cluster=self.cluster.name)
            self.obs.counter("requests_expired", flow="edge",
                             cluster=self.cluster.name).inc()

    def submit_edge(self, req: EdgeRequest) -> None:
        """Admit an edge request: place now or apply the saturation policy."""
        if req.__dict__.get("_clone_cancelled"):
            return  # its sibling already won while this copy was in flight
        self.stats.edge_submitted += 1
        self._note_admitted(req, "edge")
        if self._try_place(req, "edge", self.edge_workers()):
            self.stats.edge_placed_immediately += 1
            return
        self._handle_edge_saturation(req)

    # ------------------------------------------------------------------ #
    # saturation handling (§III-B)
    # ------------------------------------------------------------------ #
    def _handle_edge_saturation(self, req: EdgeRequest) -> None:
        policy = self.policy
        if policy is SaturationPolicy.DECISION:
            self._apply_decision(req)
            return
        if policy is SaturationPolicy.PREEMPT and self._preempt_for(req):
            return
        if policy is SaturationPolicy.VERTICAL and self._offload_vertical(req):
            return
        if policy is SaturationPolicy.HORIZONTAL and self._offload_horizontal(req):
            return
        self._enqueue_edge(req)

    def _enqueue_edge(self, req: EdgeRequest) -> None:
        req.status = RequestStatus.QUEUED
        self.edge_queue.push(req)
        self.stats.edge_queued += 1
        if self.obs.active:
            self.obs.emit_span("request", "edge.queued", self.engine.now,
                               ctx=req, id=req.request_id,
                               cluster=self.cluster.name)
            self.obs.counter("requests_queued", flow="edge",
                             cluster=self.cluster.name).inc()

    def _preempt_for(self, req: EdgeRequest) -> bool:
        """Free ``req.cores`` on one edge-eligible worker by preempting DCC.

        Chooses the worker where preempting the *fewest* cloud tasks
        suffices; preempted requests re-enter the cloud queue head with their
        remaining work preserved.
        """
        best: Optional[tuple] = None
        for w in self.edge_workers():
            if not w.enabled:
                continue
            victims = self._select_victims(w, req.cores - w.free_cores)
            if victims is not None:
                cand = (len(victims), w, victims)
                if best is None or cand[0] < best[0]:
                    best = cand
        if best is None:
            return False
        _, worker, victims = best
        for task in victims:
            preempted = worker.preempt(task.task_id)
            creq: CloudRequest = preempted.metadata["request"]
            creq.status = RequestStatus.QUEUED
            creq.cycles = max(preempted.remaining_cycles, 1.0)
            self.cloud_queue.push_front(creq)
            self.stats.cloud_preempted += 1
            if self.obs.active:
                self.obs.emit_span("request", "cloud.preempted", self.engine.now,
                                   ctx=creq, id=creq.request_id,
                                   worker=worker.name,
                                   for_request=req.request_id)
                self.obs.counter("requests_preempted", flow="cloud",
                                 cluster=self.cluster.name).inc()
        self.stats.edge_preemptions_triggered += 1
        placed = self._try_place(req, "edge", [worker])
        if not placed:  # pragma: no cover - defensive; victims freed the cores
            self._enqueue_edge(req)
        return placed

    @staticmethod
    def _select_victims(worker: ComputeServer, cores_needed: int):
        """Smallest set of preemptible cloud tasks freeing ``cores_needed``."""
        if cores_needed <= 0:
            return []
        candidates = [
            t
            for t in worker.running_tasks
            if t.metadata.get("kind") == "cloud"
            and t.metadata["request"].preemptible
        ]
        candidates.sort(key=lambda t: -t.cores)  # big victims first: fewest kills
        victims, freed = [], 0
        for t in candidates:
            victims.append(t)
            freed += t.cores
            if freed >= cores_needed:
                return victims
        return None

    def _offload_vertical(self, req: EdgeRequest) -> bool:
        if self.offloader is None or not self.offloader.can_vertical(req):
            return False
        self.offloader.vertical(req, self)
        self.stats.edge_offloaded_vertical += 1
        return True

    def _offload_horizontal(self, req: EdgeRequest) -> bool:
        if self.offloader is None:
            return False
        if req.__dict__.get("_offloaded_once"):
            return False  # no ping-pong between clusters
        if not self.offloader.horizontal(req, self):
            return False
        self.stats.edge_offloaded_horizontal += 1
        return True

    def _apply_decision(self, req: EdgeRequest) -> None:
        from repro.core.decision import Decision

        choice = self.decision_system.decide(req, self)
        if choice is Decision.PREEMPT and self._preempt_for(req):
            return
        if choice is Decision.HORIZONTAL and self._offload_horizontal(req):
            return
        if choice is Decision.VERTICAL and self._offload_vertical(req):
            return
        if choice is Decision.REJECT:
            self.reject_edge(req, reason="decision")
            return
        self._enqueue_edge(req)  # LOCAL-but-full, QUEUE, DELAY all land here

    # ------------------------------------------------------------------ #
    # queue draining
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Serve queued work after capacity freed up (EDF first, then FCFS)."""
        now = self.engine.now
        for stale in self.edge_queue.pop_expired(now):
            if stale.__dict__.get("_clone_cancelled"):
                continue  # sibling already completed; nothing to record
            self.reject_edge(stale, reason="expired")
        while self.edge_queue:
            head = self.edge_queue.peek()
            if head.__dict__.get("_clone_cancelled"):
                self.edge_queue.pop()
                continue
            if not self._try_place(head, "edge", self.edge_workers()):
                break
            self.edge_queue.pop()
        while self.cloud_queue:
            head = self.cloud_queue.peek()
            if not self._try_place(head, "cloud", self.cloud_workers()):
                break
            self.cloud_queue.pop()

    # ------------------------------------------------------------------ #
    def edge_deadline_miss_rate(self) -> float:
        """Fraction of finished edge requests that missed their deadline.

        Expired (never-served) requests count as misses.
        """
        served = self.completed_edge
        finished = len(served) + len(self.expired_edge)
        if finished == 0:
            return 0.0
        misses = sum(1 for r in served if not r.deadline_met()) + len(self.expired_edge)
        return misses / finished
