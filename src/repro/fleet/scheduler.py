"""Cluster scheduler: an arrival trace over per-GPU DVFS controllers.

Two-phase, deterministic fleet replay:

1. **Simulate** — every job is an independent (kernel, policy, seed)
   simulation: a fresh per-node controller drives a fresh
   :class:`~repro.gpu.simulator.GPUSimulator` built from a stable
   per-job seed (:func:`repro.parallel.derive_seed`).  The phase fans
   out one job per task over the resilient campaign layer
   (:func:`repro.parallel.parallel_map`), so hundreds of simulated GPUs
   reuse the retry/quarantine/checkpoint machinery and the ``--stats``
   counters of every other campaign in the repo.  Because service time
   and energy depend only on the job's own seed — not on queueing —
   this phase is order-independent and parallel-safe.

2. **Replay** — a serial discrete-event pass replays the queueing:
   arrivals enter the :class:`~repro.fleet.queue.PendingJobQueue`
   (earliest deadline first), and whenever a node is idle the
   dispatcher places the most urgent pending job on the
   least-contended node (:class:`~repro.fleet.tracker.NodeTracker`).
   Completion times, queue waits, deadline verdicts and per-node
   energy/thermal state all come out of this pass.

Since the fleet-resilience layer, the replay also consumes a seeded
:class:`~repro.faults.NodeFaultPlan`: node **crashes** and detected
**hangs** quarantine the node and preempt its in-flight job, which is
requeued from its last checkpoint (work past the checkpoint boundary
is lost, a restart overhead is paid on re-dispatch — see
:data:`CHECKPOINT_INTERVAL_S` and :data:`RESTART_OVERHEAD_S`) and
resumed on another node.  **Thermal runaway** and **sensor-corruption
storms** degrade the node in the health FSM — still placeable, but
deprioritized, and jobs dispatched into a storm window run stretched
by the storm's slowdown factor (the guarded controller rides its
fallback level through the corruption).
A storm striking an already-degraded node escalates to quarantine.
When admission control is enabled, throughput-class jobs whose
deadline has become unmeetable with the surviving capacity are shed
deterministically and accounted as :class:`~repro.fleet.metrics.ShedJob`
records, never as SLO violations; jobs stranded by a fleet-wide
permanent outage are shed too, so ``completed + shed == submitted``
always holds.

The split keeps the expensive part embarrassingly parallel while the
scheduling decisions stay strictly sequential and reproducible: the
same seed yields a byte-identical :class:`~repro.fleet.metrics.FleetResult`
export regardless of worker count — faults, migrations and shedding
included, because the fault train and every replay decision derive
only from the seed and the phase-1 outcomes.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..baselines.governor import UtilizationGovernor
from ..baselines.pcstall import PCSTALLPolicy
from ..core.controller import SSMDVFSController
from ..core.guarded import GuardedController
from ..core.policy import ModelOraclePolicy, StaticPolicy, policy_counters
from ..errors import FleetError
from ..faults import NodeFaultPlan
from ..gpu.arch import GPUArchConfig
from ..gpu.simulator import GPUSimulator
from ..parallel import (CampaignCheckpoint, CampaignStats, derive_seed,
                        parallel_map)
from .jobs import Job
from .metrics import FleetResult, JobOutcome, ShedJob
from .queue import AdmissionConfig, PendingJobQueue
from .tracker import (DEGRADED, QUARANTINED, NodeTracker, ThermalConfig,
                      resilience_counters)

#: Policy names accepted by :func:`policy_factory` (the CLI choices).
FLEET_POLICIES = ("ssmdvfs", "ssmdvfs-guarded", "ssmdvfs-chipwide",
                  "pcstall", "governor", "oracle", "static")


def _guarded_ssmdvfs(model, preset: float):
    """Factory body for the guarded per-node controller (picklable)."""
    return GuardedController(SSMDVFSController(model, preset))


def policy_factory(name: str, *, preset: float = 0.10, model=None,
                   level: int | None = None) -> Callable[[], object]:
    """A picklable zero-arg factory for one per-node policy.

    ``ssmdvfs*`` variants need a trained ``model``; ``static`` needs a
    ``level``.  The returned factory builds a *fresh* policy per job,
    matching the evaluation runner's fresh-policy-per-run rule.
    """
    if name in ("ssmdvfs", "ssmdvfs-guarded", "ssmdvfs-chipwide"):
        if model is None:
            raise FleetError(f"policy {name!r} needs a trained model")
        if name == "ssmdvfs":
            return partial(SSMDVFSController, model, preset)
        if name == "ssmdvfs-guarded":
            return partial(_guarded_ssmdvfs, model, preset)
        return partial(SSMDVFSController, model, preset, per_cluster=False)
    if name == "pcstall":
        return partial(PCSTALLPolicy, preset)
    if name == "governor":
        return UtilizationGovernor
    if name == "oracle":
        return partial(ModelOraclePolicy, preset)
    if name == "static":
        if level is None:
            raise FleetError("policy 'static' needs a level")
        return partial(StaticPolicy, level)
    raise FleetError(f"unknown fleet policy {name!r}; "
                     f"expected one of {FLEET_POLICIES}")


def _simulate_job(task: tuple) -> tuple[float, float, int, float,
                                        dict[str, int]]:
    """Process-pool unit: run one job's kernel under a fresh controller.

    Returns ``(service_s, energy_j, epochs, mean_level, counters)``.
    The mean operating level feeds the node tracker's frequency state;
    the policy stack's counters travel back for ``--stats``.
    """
    factory, kernel, arch, seed = task
    policy = factory()
    simulator = GPUSimulator(arch, kernel, seed=seed)
    result = simulator.run(policy, keep_records=True)
    if result.records:
        mean_level = float(np.mean([np.mean(r.levels)
                                    for r in result.records]))
    else:
        mean_level = float(arch.vf_table.default_level)
    return (result.time_s, result.energy_j, result.epochs, mean_level,
            policy_counters(policy))


#: Service-time progress between job checkpoints (s); a preemption
#: discards the work past the last checkpoint boundary.
CHECKPOINT_INTERVAL_S = 20e-6
#: Time a re-dispatched job pays before it resumes (s).
RESTART_OVERHEAD_S = 5e-6
#: Preemptions after which a job is shed (reason ``migration_limit``)
#: instead of ping-ponging across a collapsing fleet forever.
MAX_MIGRATIONS = 8
#: Heartbeat deadline (s): a hung node is only discovered, and its
#: frozen job preempted, this long after its progress stops.
HANG_DETECT_S = 50e-6


#: Deterministic same-instant event ordering of the replay heap:
#: arrivals enter the queue first, completions land next, faults and
#: hang-detections strike third, timed recoveries resolve last.
_ORDER_ARRIVAL, _ORDER_FINISH, _ORDER_FAULT, _ORDER_RECOVER = 0, 1, 2, 3


@dataclass
class _JobProgress:
    """Mutable replay-side progress of one job across migrations."""

    remaining_s: float
    enqueued_at: float
    migrations: int = 0
    lost_work_s: float = 0.0
    overhead_s: float = 0.0
    queued_s: float = 0.0
    first_start_s: float | None = None
    #: Energy already folded into nodes this job was preempted off.
    energy_absorbed_j: float = 0.0


@dataclass
class _Assignment:
    """One dispatch of a job onto a node (invalidated by preemption)."""

    job: Job
    node_id: int
    start_s: float
    overhead_s: float
    stretch: float
    generation: int
    remaining_at_start_s: float


class ClusterScheduler:
    """Place an arrival trace onto N simulated GPUs, one policy per node."""

    def __init__(self, arch: GPUArchConfig, factory: Callable[[], object],
                 *, num_nodes: int, policy_name: str = "policy",
                 seed: int = 0, thermal: ThermalConfig | None = None,
                 workers: int | None = None,
                 stats: CampaignStats | None = None,
                 checkpoint: CampaignCheckpoint | None = None,
                 retries: int = 2, timeout_s: float | None = None,
                 fault_plan: NodeFaultPlan | None = None,
                 admission: AdmissionConfig | None = None) -> None:
        if num_nodes < 1:
            raise FleetError("a fleet needs at least one node")
        if fault_plan is not None:
            fault_plan.validate_for(num_nodes)
        self.arch = arch
        self.factory = factory
        self.num_nodes = int(num_nodes)
        self.policy_name = policy_name
        self.seed = int(seed)
        self.thermal = thermal
        self.workers = workers
        self.stats = stats if stats is not None else CampaignStats()
        self.checkpoint = checkpoint
        self.retries = retries
        self.timeout_s = timeout_s
        self.fault_plan = fault_plan or NodeFaultPlan()
        self.admission = admission or AdmissionConfig()

    # ------------------------------------------------------------------
    def _simulate(self, jobs: Sequence[Job]) -> list[tuple]:
        """Phase 1: per-job simulations through the campaign layer."""
        tasks = [(self.factory, job.kernel, self.arch,
                  derive_seed(self.seed, "fleet-job", job.job_id))
                 for job in jobs]
        outcomes = parallel_map(_simulate_job, tasks, workers=self.workers,
                                stats=self.stats, stage="fleet-simulate",
                                checkpoint=self.checkpoint,
                                retries=self.retries,
                                timeout_s=self.timeout_s)
        for *_, counters in outcomes:
            self.stats.counters.update(counters)
        return outcomes

    def run(self, jobs: Sequence[Job], trace_name: str = "trace"
            ) -> FleetResult:
        """Replay a job stream over the fleet; returns the fleet result."""
        jobs = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        if not jobs:
            raise FleetError("cannot schedule an empty job stream")
        simulated = self._simulate(jobs)
        service = {job.job_id: outcome
                   for job, outcome in zip(jobs, simulated)}

        with self.stats.stage("fleet-replay", tasks=len(jobs), workers=1,
                              mode="serial"):
            result = self._replay(jobs, service, trace_name)
        self.stats.count("fleet_jobs", len(jobs))
        self.stats.count("fleet_slo_violations", result.violations())
        self.stats.counters.update(result.counters)
        return result

    # ------------------------------------------------------------------
    def _replay(self, jobs: list[Job], service: dict[int, tuple],
                trace_name: str) -> FleetResult:
        """Phase 2: serial discrete-event replay of queueing, placement,
        node faults, checkpointed migration, and load shedding."""
        tracker = NodeTracker(self.num_nodes, thermal=self.thermal)
        queue = PendingJobQueue()
        outcomes: list[JobOutcome] = []
        shed: list[ShedJob] = []
        counters = Counter()
        #: Unified event heap: (time, order, seq, kind, payload).
        events: list[tuple] = []
        seq = 0
        #: Active assignment per job id / occupying job per node id.
        active: dict[int, _Assignment] = {}
        node_job: dict[int, int] = {}
        generations = Counter()
        progress = {job.job_id: _JobProgress(
            remaining_s=service[job.job_id][0], enqueued_at=job.arrival_s)
            for job in jobs}
        #: The resilience part of each job's policy counters, the only
        #: part a node summary or the fleet result keeps.
        kept = {job_id: resilience_counters(outcome[4])
                for job_id, outcome in sorted(service.items())}

        def push_event(at_s: float, order: int, kind: str,
                       payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (at_s, order, seq, kind, payload))
            seq += 1

        def energy_rate(job_id: int) -> float:
            service_s, energy_j = service[job_id][0], service[job_id][1]
            return energy_j / service_s if service_s > 0 else 0.0

        def shed_job(job: Job, now_s: float, reason: str) -> None:
            shed.append(ShedJob(
                job_id=job.job_id, name=job.name, job_class=job.job_class,
                arrival_s=job.arrival_s, deadline_s=job.deadline_s,
                expected_s=job.expected_s, shed_s=now_s, reason=reason))
            counters["shed_jobs"] += 1
            counters[f"shed_{reason}"] += 1

        def preempt(job_id: int, now_s: float, upto_s: float) -> None:
            """Checkpointed preemption: keep floored progress, requeue.

            ``upto_s`` is when real progress stopped (the fault time for
            a crash, the hang onset for a detected hang) — work past it
            never happened, work past the last checkpoint is lost.
            """
            assignment = active.pop(job_id)
            node_job.pop(assignment.node_id, None)
            node = tracker.nodes[assignment.node_id]
            state = progress[job_id]
            elapsed = max(0.0, upto_s - assignment.start_s)
            overhead_used = min(elapsed, assignment.overhead_s)
            work_wall = max(0.0, elapsed - assignment.overhead_s)
            executed = min(assignment.remaining_at_start_s,
                           work_wall / assignment.stretch)
            interval = CHECKPOINT_INTERVAL_S
            kept = min(executed,
                       math.floor(executed / interval + 1e-9) * interval)
            state.remaining_s = max(0.0,
                                    assignment.remaining_at_start_s - kept)
            state.lost_work_s += executed - kept
            state.overhead_s += overhead_used
            state.migrations += 1
            segment_energy = energy_rate(job_id) * (overhead_used + executed)
            state.energy_absorbed_j += segment_energy
            # The node was wedged/occupied only until progress stopped;
            # its committed horizon resets to now (quarantine will push
            # it to the outage end).
            node.free_at_s = now_s
            tracker.absorb_partial(node, now_s, busy_s=elapsed,
                                   energy_j=segment_energy)
            counters["migration_preemptions"] += 1
            queue.push(assignment.job, requeued=True)
            state.enqueued_at = now_s
            counters["migration_requeues"] += 1

        def dispatch(now_s: float) -> None:
            """Place pending jobs on idle placeable nodes, urgent first,
            shedding unmeetable / migration-exhausted jobs on the way."""
            while queue and tracker.idle_nodes(now_s):
                job = queue.pop()
                state = progress[job.job_id]
                service_s = service[job.job_id][0]
                if state.migrations > MAX_MIGRATIONS:
                    shed_job(job, now_s, "migration_limit")
                    continue
                fraction = (state.remaining_s / service_s
                            if service_s > 0 else 1.0)
                estimate_s = job.expected_s * fraction
                if self.admission.sheddable(job, now_s, estimate_s):
                    shed_job(job, now_s, "unmeetable")
                    continue
                node = tracker.least_contended(now_s, idle_only=True)
                start_s = max(now_s, node.free_at_s)
                overhead = RESTART_OVERHEAD_S if state.migrations else 0.0
                stretch = (node.storm_slowdown
                           if node.storm_until > start_s + 1e-15 else 1.0)
                finish_s = start_s + overhead + state.remaining_s * stretch
                tracker.assign(node, job, start_s, finish_s)
                generations[job.job_id] += 1
                generation = generations[job.job_id]
                active[job.job_id] = _Assignment(
                    job=job, node_id=node.node_id, start_s=start_s,
                    overhead_s=overhead, stretch=stretch,
                    generation=generation,
                    remaining_at_start_s=state.remaining_s)
                node_job[node.node_id] = job.job_id
                if state.first_start_s is None:
                    state.first_start_s = start_s
                state.queued_s += start_s - state.enqueued_at
                push_event(finish_s, _ORDER_FINISH, "finish",
                           (job.job_id, generation))
                self.stats.count("fleet_dispatches")

        def complete(job_id: int, now_s: float) -> None:
            assignment = active.pop(job_id)
            node_job.pop(assignment.node_id, None)
            node = tracker.nodes[assignment.node_id]
            state = progress[job_id]
            job = assignment.job
            # The restart overhead of the segment that just completed was
            # fully paid; fold it in so the outcome (and its energy bill)
            # covers every segment, not just preempted ones.
            state.overhead_s += assignment.overhead_s
            service_s, energy_j, epochs, mean_level, _ = service[job_id]
            total_energy = energy_j + energy_rate(job_id) * (
                state.lost_work_s + state.overhead_s)
            tracker.complete(node, now_s, now_s - assignment.start_s,
                             total_energy - state.energy_absorbed_j,
                             mean_level)
            node.policy_counters.update(kept[job_id])
            if now_s > job.deadline_s:
                tracker.note_deadline_miss(node)
            else:
                tracker.note_clean_completion(node, now_s)
            outcomes.append(JobOutcome(
                job_id=job.job_id, name=job.name, job_class=job.job_class,
                node_id=assignment.node_id, arrival_s=job.arrival_s,
                start_s=state.first_start_s, finish_s=now_s,
                service_s=service_s, energy_j=total_energy, epochs=epochs,
                mean_level=mean_level, deadline_s=job.deadline_s,
                migrations=state.migrations,
                lost_work_s=state.lost_work_s,
                overhead_s=state.overhead_s, queued_s=state.queued_s))

        for job in jobs:
            push_event(job.arrival_s, _ORDER_ARRIVAL, "arrival", job)
        for fault in self.fault_plan:
            push_event(fault.at_s, _ORDER_FAULT, "fault", fault)

        now_s = 0.0
        while events:
            now_s, _, _, kind, payload = heapq.heappop(events)
            if kind == "arrival":
                queue.push(payload)
            elif kind == "finish":
                job_id, generation = payload
                assignment = active.get(job_id)
                if (assignment is None
                        or assignment.generation != generation):
                    pass  # stale: the job was preempted off this node
                elif tracker.nodes[assignment.node_id].hung_since is not None:
                    # The node hung mid-job: no completion heartbeat
                    # arrives, so the node stays logically occupied
                    # until the hang-detection deadline preempts it.
                    node = tracker.nodes[assignment.node_id]
                    node.free_at_s = max(node.free_at_s,
                                         node.hung_since + HANG_DETECT_S)
                else:
                    complete(job_id, now_s)
            elif kind == "fault":
                counters[f"fleet_fault_{payload.kind}"] += 1
                self._apply_fault(payload, now_s, tracker, node_job,
                                  preempt, push_event)
            elif kind == "detect":
                node_id, hung_at, duration_s = payload
                node = tracker.nodes[node_id]
                if node.hung_since == hung_at:
                    occupant = node_job.get(node_id)
                    if occupant is not None:
                        preempt(occupant, now_s, upto_s=hung_at)
                    counters["fleet_hang_detections"] += 1
                    tracker.quarantine(node, now_s, now_s + duration_s,
                                       "hang")
                    push_event(node.quarantined_until, _ORDER_RECOVER,
                               "recover", node_id)
            elif kind == "recover":
                node = tracker.nodes[payload]
                tracker.end_outage(node, now_s)
                tracker.clear_degradation(node, now_s)
            dispatch(now_s)

        while queue:  # no placeable node left and none will recover
            shed_job(queue.pop(), now_s, "stranded")

        counters.update(queue_peak_depth=queue.peak_depth,
                        queue_peak_depth_total=queue.peak_depth_total,
                        queue_requeues=queue.requeues)
        counters.update(tracker.counters)
        policy_totals = Counter()
        for job_counters in kept.values():
            policy_totals.update(job_counters)
        outcomes.sort(key=lambda o: o.job_id)
        shed.sort(key=lambda s: s.job_id)
        return FleetResult(
            policy_name=self.policy_name, trace_name=trace_name,
            seed=self.seed, num_nodes=self.num_nodes, outcomes=outcomes,
            node_summaries=tracker.to_payload(),
            peak_queue_depth=queue.peak_depth, shed=shed,
            submitted=len(jobs), counters=dict(sorted(counters.items())),
            policy_counters=policy_totals,
            fault_events=self.fault_plan.to_payload())

    def _apply_fault(self, event, now_s: float, tracker: NodeTracker,
                     node_job: dict[int, int], preempt,
                     push_event) -> None:
        """Strike one node-fault event against the live replay state."""
        node = tracker.nodes[event.node_id]
        if event.kind == "crash":
            occupant = node_job.get(event.node_id)
            if occupant is not None:
                preempt(occupant, now_s, upto_s=now_s)
            tracker.quarantine(node, now_s, event.recovery_s, "crash")
            push_event(node.quarantined_until, _ORDER_RECOVER, "recover",
                       event.node_id)
        elif event.kind == "hang":
            if node.health != QUARANTINED and node.hung_since is None:
                node.hung_since = now_s
                push_event(now_s + HANG_DETECT_S, _ORDER_FAULT, "detect",
                           (event.node_id, now_s, event.duration_s))
        elif event.kind == "thermal":
            tracker.thermal_runaway(node, now_s, event.magnitude,
                                    event.recovery_s)
            push_event(event.recovery_s, _ORDER_RECOVER, "recover",
                       event.node_id)
        else:  # sensor_storm
            node.storm_slowdown = event.magnitude
            node.storm_until = max(node.storm_until, event.recovery_s)
            if node.health == DEGRADED:
                # A storm on an already-degraded node escalates: the
                # sensors cannot be trusted at all, so drain it (the
                # in-flight job, if any, finishes — only new placement
                # stops).
                tracker.quarantine(node, now_s, event.recovery_s,
                                   "storm_escalation")
                push_event(node.quarantined_until, _ORDER_RECOVER,
                           "recover", event.node_id)
            else:
                tracker.degrade(node, now_s, "storm")
                push_event(event.recovery_s, _ORDER_RECOVER, "recover",
                           event.node_id)
