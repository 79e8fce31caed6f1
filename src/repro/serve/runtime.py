"""The always-on serving runtime: deterministic request loop over workers.

This is ROADMAP item 5 made concrete: the controller refactored from a
batch campaign into a long-running service.  The runtime is organised
as the repo's established two-phase deterministic replay:

* **Phase 1 (parallel)** — per-stream telemetry generation.  Each of
  ``config.streams`` simulated GPU streams runs its kernel under the
  default operating point through :func:`repro.parallel.parallel_map`
  (the ``--workers`` knob), producing a seeded epoch-record trace.
  Streams are independent and individually seeded, so the traces are
  byte-identical at any worker count.
* **Phase 2 (serial)** — the serving loop.  A single discrete-tick
  loop replays arrivals (with seeded jitter, duplication, reordering,
  storms, gaps and overload bursts from the
  :class:`~repro.faults.ServeFaultPlan`), assembles windows
  (:class:`~repro.serve.ingest.WindowAssembler`), applies backpressure
  (:class:`~repro.serve.ingest.RequestQueue`), and dispatches to
  supervised workers (:class:`~repro.serve.supervisor.Supervisor`)
  whose ML inference path is protected by a
  :class:`~repro.serve.breaker.CircuitBreaker` and whose Calibrator is
  fine-tuned online under the
  :class:`~repro.serve.online.OnlineCalibrator` gates.

Every decision leaving the runtime is validated with
:func:`repro.core.policy.validate_decision` *outside* the worker stack
— the certification harness's invariant 1 — and every request is
accounted exactly once as served, shed or failed (invariant 2).  The
supervisor's worker-replica count is a scenario constant; only phase 1
parallelism varies with ``--workers``, so a fixed seed exports a
byte-identical payload at any worker count (invariant 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines.governor import UtilizationGovernor
from ..core.drift import DriftMonitor, RollbackManager
from ..core.guarded import GuardedController
from ..core.policy import StaticPolicy, policy_counters, validate_decision
from ..errors import ArtifactCorrupt, PolicyError, ServeError
from ..faults import ServeFaultConfig, ServeFaultPlan
from ..gpu.arch import GPUArchConfig
from ..gpu.simulator import GPUSimulator
from ..parallel import CampaignStats, derive_seed, parallel_map
from ..store import ArtifactStore
from ..workloads.suites import scale_kernel_to_duration, training_suite
from .breaker import CircuitBreaker
from .ingest import (RequestQueue, ServeRequest, TelemetrySample,
                     WindowAssembler)
from .online import OnlineCalibrator
from .supervisor import Supervisor

#: Artifact name the serving runtime checkpoints/restores pairs under.
SERVE_ARTIFACT = "serve-pair"

#: Ticks the loop runs past ``ticks`` without new arrivals, so in-flight
#: work, restarts and the queue settle before accounting.
DRAIN_TICKS = 96
#: Ticks one request occupies a worker.
SERVICE_TICKS = 1
#: Expected telemetry samples per stream per tick (a credit
#: accumulator, not a random draw, so pacing is deterministic).
ARRIVAL_RATE = 0.6
#: Probability a request is deadline-class (else batch-class).
DEADLINE_FRACTION = 0.5
#: Seeded per-sample telemetry jitter probabilities.
DUPLICATE_RATE = 0.03
REORDER_RATE = 0.05
DROP_RATE = 0.02
#: Length of the kernel each stream replays (µs).
STREAM_DURATION_US = 200.0
#: Mean inference latency (µs, exponentially distributed).
INFERENCE_LATENCY_US = 20.0
#: Inference latency past which a decision falls back (µs); above the
#: breaker's latency budget.
STALL_TIMEOUT_US = 500.0
#: Deadline budget of a deadline-class request (ticks after arrival);
#: covers one service interval with room for queueing.
DEADLINE_SLACK_TICKS = 8
#: Deadline budget of a batch-class request (ticks after arrival).
BATCH_SLACK_TICKS = 48


@dataclass(frozen=True)
class ServeConfig:
    """Scenario description of one serving run (a pure function of it).

    ``ticks`` is the serving horizon on the integer tick clock (one
    tick ~ one DVFS epoch of wall time), extended by
    :data:`DRAIN_TICKS` without arrivals.  Streams arrive at
    :data:`ARRIVAL_RATE` with seeded duplication/reordering/loss on
    top, and the fault plan layers storms, gaps and bursts over that.
    """

    streams: int = 3
    ticks: int = 240
    num_workers: int = 2
    queue_capacity: int = 12
    preset: float = 0.10
    online_enabled: bool = True
    seed: int = 0
    faults: ServeFaultConfig = field(default_factory=ServeFaultConfig)

    def __post_init__(self) -> None:
        if self.streams < 1 or self.num_workers < 1:
            raise ServeError("need at least one stream and one worker")
        if self.ticks < 1:
            raise ServeError("ticks must be >= 1")
        if self.queue_capacity < 1:
            raise ServeError("queue_capacity must be >= 1")

    def with_seed(self, seed: int) -> "ServeConfig":
        """The same scenario under a different seed (faults re-seeded)."""
        return replace(self, seed=int(seed),
                       faults=self.faults.with_seed(seed))


def _stream_trace(task) -> list:
    """Phase-1 task: one stream's seeded telemetry trace.

    Runs the stream's kernel at the default operating point and keeps
    the completed epoch records; the serving loop replays them
    (cyclically) as that stream's counter windows.  Pure function of
    the task tuple — the parallel fan-out cannot change it.
    """
    arch, kernel, seed = task
    simulator = GPUSimulator(arch, kernel, seed=seed)
    result = simulator.run(StaticPolicy(arch.vf_table.default_level))
    records = [record for record in result.records
               if not record.all_finished]
    return records or result.records


@dataclass
class _InFlight:
    """A dispatched request plus its already-computed decision."""

    request: ServeRequest
    levels: list
    path: str  # "ml" | "degraded" | "pinned" | "fallback"


@dataclass
class ServeResult:
    """Outcome of one serving run: accounting, tails, counters.

    ``conserved`` is invariant 2 (``served + shed + failed ==
    submitted``); the shed audit records carry the context for
    invariant 5; ``recovery_ticks`` / ``unrecovered`` feed invariant 3;
    and the served-level bounds re-check invariant 1 outside the
    runtime's own validation.
    """

    policy_name: str
    streams: int
    ticks: int
    num_workers: int
    seed: int
    submitted: int = 0
    served: int = 0
    failed: int = 0
    shed_records: list = field(default_factory=list)
    wait_ticks: list = field(default_factory=list)
    recovery_ticks: list = field(default_factory=list)
    quarantined: int = 0
    unrecovered: int = 0
    min_level_served: int | None = None
    max_level_served: int | None = None
    num_levels: int = 0
    fault_counts: dict = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    decision_paths: Counter = field(default_factory=Counter)

    @property
    def shed(self) -> int:
        """How many requests were shed (all reasons)."""
        return len(self.shed_records)

    @property
    def conserved(self) -> bool:
        """Invariant 2: every submitted request accounted exactly once."""
        return self.submitted == self.served + self.shed + self.failed

    def wait_percentile(self, fraction: float) -> int:
        """Queueing-delay percentile in ticks (0 when nothing served)."""
        if not self.wait_ticks:
            return 0
        ordered = sorted(self.wait_ticks)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return int(ordered[index])

    def to_payload(self) -> dict:
        """JSON-ready dict (no wall-clock: seeded runs export bit-equal)."""
        return {
            "policy": self.policy_name,
            "streams": self.streams,
            "ticks": self.ticks,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "submitted": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "failed": self.failed,
            "conserved": self.conserved,
            "shed_records": [record.to_payload()
                             for record in self.shed_records],
            "wait_p50": self.wait_percentile(0.50),
            "wait_p95": self.wait_percentile(0.95),
            "wait_max": max(self.wait_ticks) if self.wait_ticks else 0,
            "recovery_ticks": sorted(self.recovery_ticks),
            "quarantined": self.quarantined,
            "unrecovered": self.unrecovered,
            "min_level_served": self.min_level_served,
            "max_level_served": self.max_level_served,
            "num_levels": self.num_levels,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "decision_paths": dict(sorted(self.decision_paths.items())),
            "counters": {name: int(amount)
                         for name, amount in sorted(self.counters.items())},
        }

    def render(self) -> str:
        """Human-readable serving report."""
        lines = [
            f"serve  policy={self.policy_name}  streams={self.streams}  "
            f"workers={self.num_workers}  ticks={self.ticks}  "
            f"seed={self.seed}",
            f"  requests: submitted={self.submitted}  served={self.served}"
            f"  shed={self.shed}  failed={self.failed}  "
            f"conserved={'yes' if self.conserved else 'NO'}",
            f"  wait ticks: p50={self.wait_percentile(0.5)}  "
            f"p95={self.wait_percentile(0.95)}  "
            f"max={max(self.wait_ticks) if self.wait_ticks else 0}",
            f"  workers: quarantined={self.quarantined}  "
            f"unrecovered={self.unrecovered}  recoveries="
            f"{len(self.recovery_ticks)}"
            + (f" (max {max(self.recovery_ticks)} ticks)"
               if self.recovery_ticks else ""),
            f"  decision paths: " + ", ".join(
                f"{name}={count}" for name, count
                in sorted(self.decision_paths.items())),
        ]
        if self.fault_counts:
            lines.append("  faults: " + ", ".join(
                f"{kind}={count}" for kind, count
                in sorted(self.fault_counts.items())))
        interesting = ("breaker_trips", "breaker_closes",
                       "supervisor_restarts", "supervisor_restores",
                       "online_updates_promoted", "online_updates_rejected",
                       "serve_invalid_decisions")
        shown = {name: self.counters[name] for name in interesting
                 if name in self.counters}
        if shown:
            lines.append("  counters: " + ", ".join(
                f"{name}={count}" for name, count in sorted(shown.items())))
        return "\n".join(lines)


class ServingRuntime:
    """Deterministic always-on serving loop over supervised workers.

    ``model`` is the deployed :class:`~repro.core.combined.SSMDVFSModel`
    pair (None serves through the governor baseline, which keeps smoke
    runs model-free); ``store_root`` enables checkpointed restarts,
    drift rollback and online-update versioning through one
    :class:`~repro.store.ArtifactStore`.  ``workers`` is the *phase-1*
    process-pool width only — the supervised worker count is
    ``config.num_workers`` and part of the scenario.
    """

    def __init__(self, arch: GPUArchConfig, config: ServeConfig, *,
                 model=None, store_root=None,
                 workers: int | None = None,
                 stats: CampaignStats | None = None) -> None:
        self.arch = arch
        self.config = config
        self.model = model
        self.workers = workers
        self.stats = stats if stats is not None else CampaignStats()
        self.store = (ArtifactStore(store_root)
                      if store_root is not None else None)
        self.policy_name = ("ssmdvfs+serve" if model is not None
                            else "governor+serve")
        kernels = training_suite()
        self._kernels = [
            scale_kernel_to_duration(kernels[s % len(kernels)], arch,
                                     STREAM_DURATION_US * 1e-6)
            for s in range(config.streams)]
        self._online: OnlineCalibrator | None = None

    # -- worker stacks --------------------------------------------------
    def _current_model(self):
        if self._online is not None:
            return self._online.model
        return self.model

    def _bind_sim(self, worker_id: int) -> GPUSimulator:
        return GPUSimulator(self.arch, self._kernels[0],
                            seed=derive_seed(self.config.seed,
                                             "serve-bind", worker_id))

    def _build_stack(self, worker_id: int) -> tuple[dict, bool]:
        """(decision stack, restored-from-store?) for one worker."""
        from ..core.combined import SSMDVFSModel
        from ..core.controller import SSMDVFSController
        simulator = self._bind_sim(worker_id)
        degraded = UtilizationGovernor()
        degraded.reset(simulator)
        restored = False
        if self.model is None:
            primary = UtilizationGovernor()
            primary.reset(simulator)
            return {"primary": primary, "degraded": degraded,
                    "simulator": simulator}, restored
        pair = self._current_model()
        if self.store is not None:
            try:
                blob = self.store.get(SERVE_ARTIFACT)
                candidate = SSMDVFSModel.from_bytes(blob)
                if candidate.verify():
                    pair, restored = candidate, True
            except ArtifactCorrupt:
                pass  # store empty/corrupt: serve the in-memory pair
        controller = SSMDVFSController(pair, self.config.preset)
        rollback = None
        if self.store is not None:
            rollback = RollbackManager(
                self.store, SERVE_ARTIFACT,
                build=lambda restored_pair: SSMDVFSController(
                    restored_pair, self.config.preset))
        guard = GuardedController(controller, drift_monitor=DriftMonitor(),
                                  rollback=rollback)
        guard.reset(simulator)
        return {"primary": guard, "degraded": degraded,
                "simulator": simulator}, restored

    # -- the serving loop -----------------------------------------------
    def run(self) -> ServeResult:
        """Run the full two-phase serving replay; returns the result."""
        config = self.config
        result = ServeResult(
            policy_name=self.policy_name, streams=config.streams,
            ticks=config.ticks, num_workers=config.num_workers,
            seed=config.seed,
            num_levels=self.arch.vf_table.num_levels)

        # Phase 1: parallel, seeded, per-stream telemetry generation.
        tasks = [(self.arch, self._kernels[s],
                  derive_seed(config.seed, "serve-stream", s))
                 for s in range(config.streams)]
        traces = parallel_map(_stream_trace, tasks, workers=self.workers,
                              stats=self.stats, stage="serve-telemetry")

        # Setup: store seeding, online loop, supervised workers.
        if (self.store is not None and self.model is not None
                and self.store.latest_version(SERVE_ARTIFACT) is None):
            self.store.put(SERVE_ARTIFACT, self.model.to_bytes(),
                           schema="ssmdvfs-pair/v1", mark_good=True)
        if (config.online_enabled and self.model is not None
                and self.store is not None):
            self._online = OnlineCalibrator(
                self.model, self.store, SERVE_ARTIFACT, seed=config.seed)
        plan = ServeFaultPlan.build(config.faults, config.num_workers,
                                    config.streams, config.ticks)
        plan.validate_for(config.num_workers, config.streams)
        result.fault_counts = plan.counts_by_kind()

        supervisor = Supervisor(config.num_workers, self._build_stack)
        breaker = CircuitBreaker()
        assembler = WindowAssembler()
        queue = RequestQueue(capacity=config.queue_capacity,
                             service_ticks=SERVICE_TICKS)
        rng = np.random.default_rng(
            derive_seed(config.seed, "serve-loop"))

        counters = result.counters

        # Per-stream replay cursors and label memory (snippet 3 idiom:
        # the window served at seq n is labelled by window n+1).
        next_seq = [0] * config.streams
        credit = [0.0] * config.streams
        delayed: list[tuple[int, TelemetrySample]] = []
        last_served: dict[int, tuple[int, float, np.ndarray, int]] = {}
        request_id = 0
        num_clusters = len(traces[0][0].cluster_counters)
        fallback_levels = ([self.arch.vf_table.default_level]
                          * num_clusters)

        instantaneous = {"worker_crash", "worker_hang", "poisoned_update"}
        triggers: dict[int, list] = {}
        windowed: list = []
        for event in plan:
            if event.kind in instantaneous:
                triggers.setdefault(event.at_tick, []).append(event)
            else:
                windowed.append(event)

        def window_active(kind: str, tick: int, target: int | None = None):
            for event in windowed:
                if event.kind != kind or not event.active_at(tick):
                    continue
                if target is not None and event.target != target:
                    continue
                return event
            return None

        def decide(worker, request: ServeRequest, now: int) -> _InFlight:
            """Compute one validated decision through the worker stack."""
            record = request.payload.payload
            if worker.pinned:
                counters["serve_pinned_decisions"] += 1
                return _InFlight(request, list(fallback_levels), "pinned")
            if not breaker.allow(now):
                try:
                    levels = validate_decision(
                        worker.stack["degraded"].decide(record),
                        self.arch.vf_table.num_levels, num_clusters)
                except PolicyError:
                    counters["serve_invalid_decisions"] += 1
                    levels = list(fallback_levels)
                counters["serve_degraded_decisions"] += 1
                return _InFlight(request, levels, "degraded")
            stall = window_active("inference_stall", now)
            latency_s = (INFERENCE_LATENCY_US * 1e-6
                         * float(rng.exponential(1.0)))
            if stall is not None:
                latency_s *= stall.magnitude
            if latency_s > STALL_TIMEOUT_US * 1e-6:
                breaker.record_failure(now)
                counters["serve_stall_fallbacks"] += 1
                return _InFlight(request, list(fallback_levels),
                                 "fallback")
            primary = worker.stack["primary"]
            # With the online loop on, the primary is a guard; its drift
            # alarm must cancel a promotion still on probation.
            monitor = (primary.drift_monitor if self._online is not None
                       else None)
            alarms = monitor.counters["drift_alarms"] if monitor else 0
            try:
                levels = validate_decision(
                    primary.decide(record), self.arch.vf_table.num_levels,
                    num_clusters)
            except PolicyError:
                levels = None
            if monitor and monitor.counters["drift_alarms"] > alarms:
                self._online.drift_alarmed()
            if levels is None:
                breaker.record_failure(now)
                counters["serve_invalid_decisions"] += 1
                return _InFlight(request, list(fallback_levels),
                                 "fallback")
            breaker.record_success(now, latency_s)
            return _InFlight(request, levels, "ml")

        horizon = config.ticks + DRAIN_TICKS
        for tick in range(horizon):
            arrivals_open = tick < config.ticks

            # 1. Instantaneous faults strike.
            for event in triggers.get(tick, ()):
                if event.kind == "worker_crash":
                    lost = supervisor.crash(event.target, tick)
                    if lost is not None:
                        result.failed += 1
                        counters["serve_failed_crash"] += 1
                elif event.kind == "worker_hang":
                    supervisor.hang(event.target, tick)
                elif event.kind == "poisoned_update":
                    if self._online is not None:
                        self._online.poison_next_update()
                    else:
                        counters["serve_poison_ignored"] += 1

            # 2. Supervisor machine: completions, liveness, restarts.
            completions, failures = supervisor.tick(tick)
            for worker, inflight in completions:
                request = inflight.request
                levels = inflight.levels
                # Invariant 1 re-check at the serve boundary: nothing
                # invalid leaves the runtime, whatever the path was.
                try:
                    validate_decision(levels,
                                      self.arch.vf_table.num_levels,
                                      num_clusters)
                except PolicyError:
                    counters["serve_invalid_decisions"] += 1
                    levels = list(fallback_levels)
                result.served += 1
                result.wait_ticks.append(tick - request.arrival_tick)
                result.decision_paths[inflight.path] += 1
                level = int(levels[0])
                if (result.min_level_served is None
                        or level < result.min_level_served):
                    result.min_level_served = level
                if (result.max_level_served is None
                        or level > result.max_level_served):
                    result.max_level_served = level
                record = request.payload.payload
                if self._online is not None:
                    prev = last_served.get(request.stream_id)
                    instructions = float(record.instructions)
                    if prev is not None and prev[1] > 0:
                        _, prev_inst, prev_raw, prev_level = prev
                        self._online.observe(
                            prev_raw, prev_level,
                            instructions / prev_inst)
                    raw_features = (self._online.model.calibrator
                                    .extractor.extract(record.counters))
                    last_served[request.stream_id] = (
                        request.seq, instructions, raw_features, level)
            result.failed += len(failures)
            if failures:
                counters["serve_failed_liveness"] += len(failures)

            # 3. Telemetry arrivals (phase-1 traces + seeded jitter).
            if arrivals_open:
                burst = window_active("overload_burst", tick)
                rate = ARRIVAL_RATE * (
                    burst.magnitude if burst is not None else 1.0)
                for stream in range(config.streams):
                    credit[stream] += rate
                    emit = int(credit[stream])
                    credit[stream] -= emit
                    trace = traces[stream]
                    for _ in range(emit):
                        seq = next_seq[stream]
                        next_seq[stream] += 1
                        sample = TelemetrySample(
                            stream_id=stream, seq=seq, sent_tick=tick,
                            payload=trace[seq % len(trace)])
                        if window_active("telemetry_gap", tick, stream):
                            counters["serve_gap_losses"] += 1
                            continue
                        if rng.random() < DROP_RATE:
                            counters["serve_jitter_losses"] += 1
                            continue
                        copies = 1
                        storm = window_active("telemetry_storm", tick,
                                              stream)
                        if storm is not None:
                            copies = max(1, int(storm.magnitude))
                            counters["serve_storm_duplicates"] += copies - 1
                        elif rng.random() < DUPLICATE_RATE:
                            copies = 2
                        for _ in range(copies):
                            if rng.random() < REORDER_RATE:
                                delay = 1 + int(rng.integers(2))
                                delayed.append((tick + delay, sample))
                            else:
                                assembler.offer(sample, tick)
            if delayed:
                due = [item for item in delayed if item[0] <= tick]
                delayed = [item for item in delayed if item[0] > tick]
                for _, sample in sorted(
                        due, key=lambda item: (item[1].stream_id,
                                               item[1].seq)):
                    assembler.offer(sample, tick)

            # 4. Window assembly -> request creation -> backpressure.
            for sample in assembler.pop_ready(tick):
                deadline_class = rng.random() < DEADLINE_FRACTION
                slack = (DEADLINE_SLACK_TICKS if deadline_class
                         else BATCH_SLACK_TICKS)
                request = ServeRequest(
                    request_id=request_id, stream_id=sample.stream_id,
                    seq=sample.seq, arrival_tick=tick,
                    deadline_tick=tick + slack,
                    deadline_class=deadline_class, payload=sample)
                request_id += 1
                result.submitted += 1
                queue.offer(request)

            # 5. Dispatch to ready workers.
            while True:
                ready = supervisor.ready_workers()
                if not ready:
                    break
                request = queue.pop_serviceable(tick)
                if request is None:
                    break
                worker = ready[0]
                inflight = decide(worker, request, tick)
                supervisor.dispatch(worker, inflight, tick, SERVICE_TICKS)

            # 6. Online calibration pump (gated updates).
            if self._online is not None:
                before = self._online.model
                self._online.maybe_update()
                if self._online.model is not before:
                    counters["serve_model_promotions"] += 1

        # Drain accounting: whatever could not be served in the drain
        # window is shed explicitly so conservation stays exact.
        queue.drain()
        result.shed_records = list(queue.shed)
        result.quarantined = supervisor.quarantined()
        result.unrecovered = supervisor.unrecovered()
        result.recovery_ticks = supervisor.recovery_ticks()
        # Requests still in flight on hung/restarting workers at the end
        # of the horizon are failures (they never completed).  Each
        # worker's decision stack hands in its policy counters.
        for worker in supervisor.workers:
            if worker.request is not None:
                result.failed += 1
                counters["serve_failed_stranded"] += 1
            counters.update(policy_counters(worker.stack["primary"]))
            counters.update(policy_counters(worker.stack["degraded"]))

        for component in (queue, assembler, breaker, supervisor,
                          self._online, self.store):
            if component is not None:
                counters.update(component.counters)
        counters.update(
            serve_requests_submitted=result.submitted,
            serve_requests_accounted=(result.served + result.shed
                                      + result.failed))
        return result
