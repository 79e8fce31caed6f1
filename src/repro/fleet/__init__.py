"""Fleet-scale DVFS: a cluster scheduler over per-GPU controllers.

Models a datacenter of N simulated GPUs serving a live job stream:
:mod:`~repro.fleet.jobs` generates deterministic arrival traces of
latency-sensitive and throughput jobs with per-job deadlines,
:mod:`~repro.fleet.queue` orders the pending backlog earliest-deadline-
first (with admission control for deterministic load shedding),
:mod:`~repro.fleet.tracker` maintains per-GPU contention / frequency /
thermal state plus a per-node health FSM (``HEALTHY -> DEGRADED ->
QUARANTINED -> RECOVERING``) for least-contended placement, and
:mod:`~repro.fleet.scheduler` replays the trace — each job running
under its node's own DVFS controller (SSMDVFS, guarded, or any
baseline) through the resilient campaign layer, with seeded node-level
faults (:class:`~repro.faults.NodeFaultPlan`), checkpointed migration
of preempted jobs, and shed accounting.
:mod:`~repro.fleet.metrics` aggregates the result into fleet EDP,
SLO-violation rate, p50/p95/p99 tail latency and shed/migration
counters, with atomic JSON export.  Exposed on the CLI as
``repro-ssmdvfs fleet`` and stress-tested by ``repro-ssmdvfs
fleet-chaos``.
"""

from .jobs import (BUILTIN_TRACES, JOB_CLASSES, LATENCY, THROUGHPUT, Job,
                   TraceConfig, build_trace)
from .metrics import FleetResult, JobOutcome, ShedJob, tail_latencies
from .queue import AdmissionConfig, PendingJobQueue
from .scheduler import FLEET_POLICIES, ClusterScheduler, policy_factory
from .tracker import (DEGRADED, HEALTH_STATES, HEALTHY, QUARANTINED,
                      RECOVERING, NodeState, NodeTracker, ThermalConfig)

__all__ = [
    "BUILTIN_TRACES", "JOB_CLASSES", "LATENCY", "THROUGHPUT", "Job",
    "TraceConfig", "build_trace", "FleetResult", "JobOutcome", "ShedJob",
    "tail_latencies", "AdmissionConfig", "PendingJobQueue",
    "FLEET_POLICIES", "ClusterScheduler", "policy_factory",
    "DEGRADED", "HEALTH_STATES", "HEALTHY", "QUARANTINED", "RECOVERING",
    "NodeState", "NodeTracker", "ThermalConfig",
]
