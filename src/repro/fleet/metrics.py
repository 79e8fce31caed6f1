"""Fleet-level metrics: EDP, SLO accounting, tail latency, shed jobs.

The paper's per-GPU metrics (normalized EDP, normalized latency) do not
capture what a datacenter operator watches.  :class:`FleetResult`
aggregates a scheduled trace into the fleet-scale picture:

* **fleet EDP** — total dissipated energy times the makespan, the
  energy-delay product of the fleet serving the whole trace;
* **SLO-violation rate** — the fraction of *completed* jobs that
  finished after their deadline (reported overall and per job class);
* **tail latency** — p50/p95/p99 of per-job latency (queue wait plus
  service), the distribution SLOs are actually written against;
* **shed accounting** — jobs deliberately dropped by admission control
  (or stranded by a fleet-wide outage) are first-class
  :class:`ShedJob` records, *not* SLO violations: overload and node
  failure degrade into an explicit, conserved shed count instead of a
  collapsing tail.  ``completed + shed == submitted`` always holds —
  the job-conservation invariant the ``fleet-chaos`` harness pins.

Every field derives deterministically from the seeded trace replay, so
the JSON export (:func:`~repro.store.write_json`) is byte-identical
across reruns and worker counts — the property the ``fleet-smoke`` /
``fleet-chaos`` CI gates and the regression tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import FleetError
from .jobs import JOB_CLASSES

#: The tail percentiles every fleet report carries.
TAIL_PERCENTILES = (50, 95, 99)

#: Reasons a job can be shed instead of served.
SHED_REASONS = ("unmeetable", "migration_limit", "stranded")


def tail_latencies(latencies_s: list[float]) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over a latency sample."""
    if not latencies_s:
        return {f"p{p}": 0.0 for p in TAIL_PERCENTILES}
    values = np.asarray(latencies_s, dtype=float)
    return {f"p{p}": float(np.percentile(values, p))
            for p in TAIL_PERCENTILES}


@dataclass(frozen=True)
class JobOutcome:
    """One job's scheduled life: arrival -> queue -> node(s) -> completion.

    ``start_s`` is the *first* dispatch; a migrated job may run
    segments on several nodes before finishing on ``node_id``.
    ``queued_s`` accumulates every wait in the pending queue (initial
    plus post-preemption requeues), ``lost_work_s`` is service-time
    progress discarded because it happened after the job's last
    checkpoint, and ``overhead_s`` the restart cost paid on
    re-dispatch.
    """

    job_id: int
    name: str
    job_class: str
    node_id: int
    arrival_s: float
    start_s: float
    finish_s: float
    service_s: float
    energy_j: float
    epochs: int
    mean_level: float
    deadline_s: float
    migrations: int = 0
    lost_work_s: float = 0.0
    overhead_s: float = 0.0
    queued_s: float = 0.0

    @property
    def wait_s(self) -> float:
        """Time from submission to the first dispatch."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queue wait plus service."""
        return self.finish_s - self.arrival_s

    @property
    def violated(self) -> bool:
        """True when the job finished past its deadline."""
        return self.finish_s > self.deadline_s

    def to_payload(self) -> dict:
        """JSON-ready dict including the derived SLO fields."""
        payload = asdict(self)
        payload["wait_s"] = self.wait_s
        payload["latency_s"] = self.latency_s
        payload["violated"] = self.violated
        return payload


@dataclass(frozen=True)
class ShedJob:
    """A job deliberately dropped instead of served.

    ``reason`` is one of :data:`SHED_REASONS`: ``unmeetable`` (admission
    control — the deadline could not be met with surviving capacity),
    ``migration_limit`` (preempted more times than the migration budget
    allows), or ``stranded`` (still pending when the fleet ran out of
    recoverable nodes).  Shed jobs are accounted separately from SLO
    violations and participate in the conservation invariant.
    """

    job_id: int
    name: str
    job_class: str
    arrival_s: float
    deadline_s: float
    expected_s: float
    shed_s: float
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in SHED_REASONS:
            raise FleetError(f"unknown shed reason {self.reason!r}; "
                             f"expected one of {SHED_REASONS}")

    def to_payload(self) -> dict:
        """JSON-ready dict."""
        return asdict(self)


@dataclass
class FleetResult:
    """Aggregate outcome of one scheduled trace replay."""

    policy_name: str
    trace_name: str
    seed: int
    num_nodes: int
    #: Jobs submitted to the replay.
    submitted: int
    outcomes: list[JobOutcome] = field(default_factory=list)
    node_summaries: list[dict] = field(default_factory=list)
    peak_queue_depth: int = 0
    shed: list[ShedJob] = field(default_factory=list)
    #: Fleet-scope resilience counters (``fleet_fault_*``,
    #: ``migration_*``, ``shed_*``, ``node_state_*``, ``queue_*``).
    counters: dict[str, int] = field(default_factory=dict)
    #: Aggregated per-policy observability (``guard_*``/``drift_*``/...)
    #: over every job of the replay.
    policy_counters: dict[str, int] = field(default_factory=dict)
    #: The injected node-fault train, in replay order (empty when the
    #: replay ran fault-free).
    fault_events: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _require_jobs(self) -> None:
        if not self.outcomes:
            raise FleetError("fleet result holds no job outcomes")

    @property
    def jobs_submitted(self) -> int:
        """Jobs submitted to the replay (conservation denominator)."""
        return self.submitted

    @property
    def conserved(self) -> bool:
        """Job-conservation invariant: nothing lost or double-counted."""
        completed_ids = [o.job_id for o in self.outcomes]
        shed_ids = [s.job_id for s in self.shed]
        all_ids = completed_ids + shed_ids
        return (len(all_ids) == len(set(all_ids))
                and len(all_ids) == self.jobs_submitted)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion (0 when nothing completed)."""
        if not self.outcomes:
            return 0.0
        return (max(o.finish_s for o in self.outcomes)
                - min(o.arrival_s for o in self.outcomes))

    @property
    def total_energy_j(self) -> float:
        """Energy dissipated by every job across the fleet."""
        return sum(o.energy_j for o in self.outcomes)

    @property
    def fleet_edp(self) -> float:
        """Fleet energy-delay product: total energy x makespan."""
        return self.total_energy_j * self.makespan_s

    def violations(self) -> int:
        """Count of deadline misses."""
        return sum(1 for o in self.outcomes if o.violated)

    def slo_violation_rate(self, job_class: str | None = None) -> float:
        """Fraction of completed jobs that missed their deadline."""
        jobs = [o for o in self.outcomes
                if job_class is None or o.job_class == job_class]
        if not jobs:
            return 0.0
        return sum(1 for o in jobs if o.violated) / len(jobs)

    def shed_rate(self) -> float:
        """Fraction of submitted jobs that were shed."""
        total = self.jobs_submitted
        return len(self.shed) / total if total else 0.0

    def migrations_total(self) -> int:
        """Total preemption-driven migrations across completed jobs."""
        return sum(o.migrations for o in self.outcomes)

    def latencies(self, job_class: str | None = None) -> list[float]:
        """Per-job latencies (seconds), job-id order."""
        return [o.latency_s for o in self.outcomes
                if job_class is None or o.job_class == job_class]

    def tail_latency(self, job_class: str | None = None) -> dict[str, float]:
        """p50/p95/p99 latency, overall or for one job class."""
        return tail_latencies(self.latencies(job_class))

    def mean_utilization(self) -> float:
        """Mean busy fraction across nodes over the makespan."""
        if not self.outcomes:
            return 0.0
        horizon = max(o.finish_s for o in self.outcomes)
        if horizon <= 0 or not self.node_summaries:
            return 0.0
        return float(np.mean([n["busy_s"] / horizon
                              for n in self.node_summaries]))

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready dict (no wall-clock: seeded replays export bit-equal)."""
        per_class = {}
        for job_class in JOB_CLASSES:
            per_class[job_class] = {
                "jobs": sum(1 for o in self.outcomes
                            if o.job_class == job_class),
                "slo_violation_rate": self.slo_violation_rate(job_class),
                "tail_latency_s": self.tail_latency(job_class),
                "shed": sum(1 for s in self.shed
                            if s.job_class == job_class),
            }
        return {
            "policy": self.policy_name,
            "trace": self.trace_name,
            "seed": self.seed,
            "nodes": self.num_nodes,
            "jobs": len(self.outcomes),
            "submitted": self.jobs_submitted,
            "conserved": self.conserved,
            "makespan_s": self.makespan_s,
            "total_energy_j": self.total_energy_j,
            "fleet_edp": self.fleet_edp,
            "slo_violation_rate": self.slo_violation_rate(),
            "slo_violations": self.violations(),
            "tail_latency_s": self.tail_latency(),
            "mean_utilization": self.mean_utilization(),
            "peak_queue_depth": self.peak_queue_depth,
            "shed_jobs": len(self.shed),
            "shed_rate": self.shed_rate(),
            "migrations": self.migrations_total(),
            "per_class": per_class,
            "counters": dict(sorted(self.counters.items())),
            "policy_counters": dict(sorted(self.policy_counters.items())),
            "fault_events": list(self.fault_events),
            "node_summaries": list(self.node_summaries),
            "shed": [s.to_payload() for s in self.shed],
            "job_outcomes": [o.to_payload() for o in self.outcomes],
        }

    def render(self) -> str:
        """Human-readable fleet report."""
        from ..evaluation.reporting import format_percent, format_table
        self._require_jobs()
        rows = []
        for job_class in (None, *JOB_CLASSES):
            label = job_class or "all"
            tail = self.tail_latency(job_class)
            jobs = [o for o in self.outcomes
                    if job_class is None or o.job_class == job_class]
            rows.append([
                label, str(len(jobs)),
                format_percent(self.slo_violation_rate(job_class)),
                f"{tail['p50'] * 1e6:.1f}",
                f"{tail['p95'] * 1e6:.1f}",
                f"{tail['p99'] * 1e6:.1f}",
            ])
        table = format_table(
            ["class", "jobs", "SLO viol", "p50 (us)", "p95 (us)",
             "p99 (us)"], rows,
            title=(f"Fleet replay: policy {self.policy_name}, trace "
                   f"{self.trace_name}, {self.num_nodes} nodes, "
                   f"seed {self.seed}"))
        lines = [table,
                 f"fleet EDP {self.fleet_edp:.3e} J*s  "
                 f"(energy {self.total_energy_j * 1e3:.2f} mJ over "
                 f"makespan {self.makespan_s * 1e3:.3f} ms)",
                 f"mean node utilization "
                 f"{format_percent(self.mean_utilization())}, peak queue "
                 f"depth {self.peak_queue_depth}"]
        if self.shed or self.migrations_total() or self.fault_events:
            lines.append(
                f"resilience: {len(self.fault_events)} node faults, "
                f"{self.migrations_total()} migrations, "
                f"{len(self.shed)} shed "
                f"({format_percent(self.shed_rate())} of submitted), "
                f"conserved={'yes' if self.conserved else 'NO'}")
        return "\n".join(lines)
