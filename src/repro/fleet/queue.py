"""Deadline-aware pending-job queue with admission control.

Jobs wait here between arrival and dispatch.  Ordering is earliest-
deadline-first (EDF): the job whose deadline expires soonest is always
served next, with FIFO arrival order as the deterministic tie-break.
Latency-sensitive jobs carry much tighter deadlines than throughput
jobs, so EDF naturally prioritises the interactive traffic without a
separate priority lane — a throughput job only runs ahead of a latency
job when the latency job still has more slack than it does.

Two resilience concerns live here too:

* **Requeue accounting** — a job migrated off a failed node re-enters
  the queue with ``push(job, requeued=True)``.  Requeued entries keep
  their original :class:`~repro.fleet.jobs.Job` (and therefore their
  original submit time and deadline, which is what deadline-slack
  computations key on) and are *excluded* from :attr:`peak_depth`, so
  migration churn cannot masquerade as fresh demand in queue-depth
  stats; :attr:`peak_depth_total` keeps the raw high-water mark and
  :attr:`requeues` counts the churn itself.
* **Admission control** — :class:`AdmissionConfig` describes when the
  dispatcher may shed a job whose deadline has become unmeetable with
  the surviving capacity, so overload degrades into accounted shed
  jobs instead of a collapsing tail.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..errors import FleetError
from .jobs import THROUGHPUT, Job

#: Job classes admission control may shed: throughput only, since
#: latency jobs are the SLO the fleet is judged on.
SHEDDABLE_CLASSES = (THROUGHPUT,)


@dataclass(frozen=True)
class AdmissionConfig:
    """When and what the dispatcher may shed under overload.

    Disabled by default (every job is eventually served, PR-6
    behaviour).  When enabled, a job popped for dispatch whose
    remaining service estimate can no longer meet its deadline — even
    if started immediately — is shed *iff* its class is in
    :data:`SHEDDABLE_CLASSES` (throughput only: latency jobs are the
    SLO the fleet is judged on, so they run and get accounted as
    violations, which is what should page an operator).
    ``slack_s`` grants extra grace beyond the deadline before a job
    counts as unmeetable.
    """

    enabled: bool = False
    slack_s: float = 0.0

    def __post_init__(self) -> None:
        if self.slack_s < 0:
            raise FleetError("admission slack_s cannot be negative")

    def sheddable(self, job: Job, now_s: float,
                  remaining_estimate_s: float) -> bool:
        """True when ``job`` should be shed instead of dispatched."""
        if not self.enabled or job.job_class not in SHEDDABLE_CLASSES:
            return False
        return now_s + remaining_estimate_s > job.deadline_s + self.slack_s


class PendingJobQueue:
    """Earliest-deadline-first queue of jobs awaiting dispatch."""

    def __init__(self) -> None:
        #: Heap entries: ``(deadline_s, push_seq, requeued, job)``.
        self._heap: list[tuple[float, int, bool, Job]] = []
        self._pushes = 0
        #: Requeued entries currently pending (excluded from peak_depth).
        self._requeued_pending = 0
        #: High-water mark of *first-time* pending jobs: requeued
        #: (migrated/preempted) entries are excluded so they are not
        #: double-counted as fresh backlog.
        self.peak_depth = 0
        #: High-water mark of the raw backlog, requeues included.
        self.peak_depth_total = 0
        #: Total requeued (migrated/preempted) pushes.
        self.requeues = 0

    def push(self, job: Job, *, requeued: bool = False) -> None:
        """Enqueue a job, keyed by its deadline (FIFO tie-break).

        ``requeued`` marks a migrated/preempted job re-entering the
        queue: it keeps its original ``Job`` record (submit time and
        deadline included) and does not inflate :attr:`peak_depth`.
        """
        heapq.heappush(self._heap,
                       (job.deadline_s, self._pushes, requeued, job))
        self._pushes += 1
        if requeued:
            self.requeues += 1
            self._requeued_pending += 1
        self.peak_depth = max(self.peak_depth,
                              len(self._heap) - self._requeued_pending)
        self.peak_depth_total = max(self.peak_depth_total, len(self._heap))

    def pop(self) -> Job:
        """Remove and return the job with the earliest deadline."""
        if not self._heap:
            raise FleetError("cannot pop an empty pending-job queue")
        _, _, requeued, job = heapq.heappop(self._heap)
        if requeued:
            self._requeued_pending -= 1
        return job

    def jobs(self) -> list[Job]:
        """Pending jobs in dispatch order (non-destructive)."""
        return [entry[3] for entry in sorted(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
