"""Supervised worker lifecycle for the always-on serving runtime.

The serving loop never talks to a controller directly: it talks to a
:class:`Supervisor` that owns a fixed pool of controller workers and
absorbs their failures.  A crashed or wedged worker is killed and
restarted from checkpointed state with capped exponential backoff; a
worker that keeps dying climbs the escalation ladder::

    restart (backoff 2, 4, 8, ... ticks, capped)
      -> pinned fallback  (the rebuilt worker serves only the static
                           fallback decision -- safe, never wrong)
        -> quarantine     (the worker is removed from dispatch for the
                           rest of the run and accounted as down)

Two probes drive detection.  The *liveness* probe kills any worker
that has held a request longer than :data:`LIVENESS_TICKS` without
completing (a hang, a stall, a lost completion).  The *readiness*
probe gates dispatch: only ``READY`` workers receive work, so a
restarting or quarantined worker can never be handed a request.

All state transitions are functions of the serving loop's integer tick
clock — no wall time — so a seeded run replays byte-identically.
``supervisor_*`` counters expose every transition for ``--stats`` and
the chaos harness.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from ..errors import ServeError

#: Worker states (strings so traces and exports read naturally).
READY = "ready"
BUSY = "busy"
RESTARTING = "restarting"
QUARANTINED = "quarantined"


#: Restart backoff of a worker's first restart (ticks); it doubles per
#: restart up to :data:`BACKOFF_CAP_TICKS`.
BACKOFF_BASE_TICKS = 2
#: Longest restart backoff (ticks).
BACKOFF_CAP_TICKS = 32
#: In-flight age past which the liveness probe declares a worker
#: wedged (ticks).
LIVENESS_TICKS = 8
#: Restarts after which a worker comes back pinned (fallback-only).
PIN_AFTER = 2
#: Restarts after which a worker is quarantined for the rest of the run.
QUARANTINE_AFTER = 4


class WorkerHandle:
    """One supervised controller worker (state + in-flight bookkeeping)."""

    def __init__(self, worker_id: int, stack: object) -> None:
        self.worker_id = worker_id
        #: The worker's decision stack (guarded controller or baseline).
        self.stack = stack
        self.state = READY
        self.pinned = False
        self.hung = False
        self.restarts = 0
        self.restart_at: int | None = None
        self.busy_until: int | None = None
        self.dispatch_tick: int | None = None
        self.request = None
        self.completions = 0
        self.down_since: int | None = None

    @property
    def ready(self) -> bool:
        """Readiness probe: may this worker receive a request now?"""
        return self.state == READY and not self.hung


class Supervisor:
    """Own a pool of controller workers; restart, escalate, account.

    ``build_stack(worker_id)`` rebuilds one worker's decision stack and
    returns ``(stack, restored)`` where ``restored`` reports whether
    the stack was rebuilt from checkpointed store state (counted as
    ``supervisor_restores``).  The runtime injects faults through
    :meth:`crash` / :meth:`hang` and advances the machine once per tick
    through :meth:`tick`.
    """

    def __init__(self, num_workers: int,
                 build_stack: Callable[[int], tuple[object, bool]]) -> None:
        if num_workers < 1:
            raise ServeError("the supervisor needs at least one worker")
        self.build_stack = build_stack
        self.counters = Counter()
        self.workers: list[WorkerHandle] = []
        #: Completed (down_tick, up_tick) outages, for the bounded-
        #: recovery invariant.  Quarantined workers never appear here;
        #: they are terminal and accounted separately.
        self.recoveries: list[tuple[int, int]] = []
        for worker_id in range(num_workers):
            stack, _ = build_stack(worker_id)
            self.workers.append(WorkerHandle(worker_id, stack))

    # -- probes and dispatch -------------------------------------------
    def ready_workers(self) -> list[WorkerHandle]:
        """Workers passing the readiness probe, in id order."""
        return [worker for worker in self.workers if worker.ready]

    def dispatch(self, worker: WorkerHandle, request, now_tick: int,
                 service_ticks: int) -> None:
        """Hand one request to a ready worker."""
        if not worker.ready:
            raise ServeError(
                f"dispatch to non-ready worker {worker.worker_id} "
                f"({worker.state})")
        worker.state = BUSY
        worker.request = request
        worker.dispatch_tick = now_tick
        worker.busy_until = now_tick + max(1, service_ticks)
        self.counters["supervisor_dispatches"] += 1

    # -- fault entry points --------------------------------------------
    def crash(self, worker_id: int, now_tick: int):
        """Kill a worker (injected crash); returns the lost request."""
        worker = self.workers[worker_id]
        if worker.state in (RESTARTING, QUARANTINED):
            return None  # already down; a crash on a corpse is a no-op
        self.counters["supervisor_crashes"] += 1
        return self._take_down(worker, now_tick)

    def hang(self, worker_id: int, now_tick: int) -> None:
        """Wedge a worker: it stops completing until the probe kills it."""
        worker = self.workers[worker_id]
        if worker.state in (RESTARTING, QUARANTINED):
            return
        worker.hung = True
        self.counters["supervisor_hangs"] += 1

    def _take_down(self, worker: WorkerHandle, now_tick: int):
        """Common kill path: schedule restart or escalate; free the slot."""
        lost = worker.request
        worker.request = None
        worker.busy_until = None
        worker.dispatch_tick = None
        worker.hung = False
        worker.down_since = now_tick
        worker.restarts += 1
        if worker.restarts >= QUARANTINE_AFTER:
            worker.state = QUARANTINED
            worker.restart_at = None
            self.counters["supervisor_quarantined"] += 1
            return lost
        backoff = min(BACKOFF_CAP_TICKS,
                      BACKOFF_BASE_TICKS * (2 ** (worker.restarts - 1)))
        worker.state = RESTARTING
        worker.restart_at = now_tick + backoff
        if worker.restarts >= PIN_AFTER and not worker.pinned:
            worker.pinned = True
            self.counters["supervisor_pinned"] += 1
        return lost

    # -- the per-tick machine ------------------------------------------
    def tick(self, now_tick: int) -> tuple[list, list]:
        """Advance one tick; returns ``(completions, failures)``.

        ``completions`` are ``(worker, request)`` pairs whose service
        interval elapsed this tick; ``failures`` are requests lost to a
        liveness kill.  Restarts whose backoff expired come back READY
        (rebuilt from checkpointed state), and idle hung workers are
        caught by the same probe that catches wedged busy ones.
        """
        completions: list = []
        failures: list = []
        for worker in self.workers:
            # Liveness probe: a busy worker past its in-flight budget,
            # or an idle worker that stopped answering probes.
            wedged_busy = (
                worker.state == BUSY and worker.dispatch_tick is not None
                and now_tick - worker.dispatch_tick > LIVENESS_TICKS)
            wedged_idle = worker.state == READY and worker.hung
            if wedged_busy or wedged_idle:
                self.counters["supervisor_liveness_kills"] += 1
                lost = self._take_down(worker, now_tick)
                if lost is not None:
                    failures.append(lost)
                continue
            if (worker.state == BUSY and worker.busy_until is not None
                    and now_tick >= worker.busy_until):
                if worker.hung:
                    continue  # a hung worker never completes; probe it out
                request, worker.request = worker.request, None
                worker.state = READY
                worker.busy_until = None
                worker.dispatch_tick = None
                worker.completions += 1
                completions.append((worker, request))
                continue
            if (worker.state == RESTARTING and worker.restart_at is not None
                    and now_tick >= worker.restart_at):
                stack, restored = self.build_stack(worker.worker_id)
                worker.stack = stack
                worker.state = READY
                worker.restart_at = None
                self.counters["supervisor_restarts"] += 1
                if restored:
                    self.counters["supervisor_restores"] += 1
                if worker.down_since is not None:
                    self.recoveries.append((worker.down_since, now_tick))
                    worker.down_since = None
        return completions, failures

    # -- accounting -----------------------------------------------------
    def quarantined(self) -> int:
        """How many workers ended up quarantined."""
        return sum(1 for w in self.workers if w.state == QUARANTINED)

    def unrecovered(self) -> int:
        """Workers down at end of run that are *not* quarantined.

        The bounded-recovery invariant requires this to be zero after
        the drain window: every non-terminal outage must resolve.
        """
        return sum(1 for w in self.workers
                   if w.state == RESTARTING or (w.state == BUSY and w.hung))

    def recovery_ticks(self) -> list[int]:
        """Outage durations (ticks) of every completed recovery."""
        return [up - down for down, up in self.recoveries]
