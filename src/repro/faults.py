"""Seeded, composable fault injection for policies and campaigns.

SSMDVFS is a closed loop: corrupted counter samples, NaN model outputs
and crashed campaign workers can silently blow the performance-loss
preset the whole system promises to honour.  This module provides the
fault models the resilience work is tested against:

* :class:`FaultConfig` — a declarative, seeded description of sensor
  faults (whole-window dropout, stuck-at registers, NaN poisoning,
  spiked noise) and actuation faults (delayed or dropped frequency
  switches).
* :class:`FaultyPolicy` — wraps any DVFS policy: corrupts the epoch
  record the policy observes and the decisions it actuates, with a
  deterministic per-seed fault stream.  Compose with
  :class:`repro.core.guarded.GuardedController` (faults outside, guard
  inside) to exercise the guard exactly as deployment would:
  ``FaultyPolicy(GuardedController(inner), config)``.
* :class:`FlakyTask` — a picklable campaign-task proxy that injects
  *process-level* faults (hard worker crashes, hangs, raised
  exceptions) deterministically per task, tracking attempts through
  marker files — the only channel that survives a killed worker.  It
  drives the retry/quarantine machinery of
  :func:`repro.parallel.parallel_map`.
* :class:`NodeFaultPlan` — a seeded train of *node-level* events for
  the fleet layer: whole-GPU crashes, hangs (progress stops until the
  heartbeat watchdog notices), thermal runaway, and sensor-corruption
  storms, each with a timed recovery.  The fleet scheduler's discrete-
  event replay consumes the plan to drive its health FSM, checkpointed
  job migration and load shedding
  (:mod:`repro.fleet.scheduler`), and the ``repro-ssmdvfs
  fleet-chaos`` harness asserts fleet invariants under randomized
  plans.  :class:`ServeFaultPlan` is the serving runtime's counterpart;
  both share the :class:`FaultPlan` shape, and all three configs share
  :class:`FaultRateConfig`.

Every fault draw is deterministic given the config seed *and* the run
identity (:func:`derive_fault_seed` mixes in the workload name and
simulator seed), so a faulted campaign is replayable byte-for-byte at
any worker count while concurrent tasks still draw independent fault
streams rather than one correlated sequence.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterable

import numpy as np

from .errors import FaultInjectionError, FleetFaultError, ServeFaultError
from .gpu.counters import NUM_COUNTERS, CounterSet
from .gpu.simulator import EpochRecord, GPUSimulator
from .parallel import derive_seed


def derive_fault_seed(base_seed: int, *parts: object) -> int:
    """Stable per-run fault-stream seed from the run's identity.

    A campaign fans one :class:`FaultConfig` out over many tasks; if
    every wrapped policy re-seeded its stream straight from
    ``config.seed``, all tasks would replay the *same* fault sequence
    — systematically correlated faults masquerading as an independent
    sample.  Mixing the run identity (workload name, simulator seed)
    into the seed via SHA-256 keeps each task's stream independent
    while staying deterministic: the same task draws the same faults
    serial or parallel, any worker count.
    """
    return derive_seed(base_seed, "fault-stream", *parts)


class FaultRateConfig:
    """Shared shape of the fault configs: frozen dataclasses with a
    ``seed`` field and rate knobs named in :attr:`RATE_FIELDS`."""

    RATE_FIELDS: ClassVar[tuple[str, ...]] = ()

    def _check_rates(self, error: type[Exception],
                     upper: float | None) -> None:
        """Raise ``error`` for a rate outside ``[0, upper]`` (``upper`` is
        1 for probabilities, None for unbounded Poisson intensities)."""
        for name in self.RATE_FIELDS:
            rate = getattr(self, name)
            if rate < 0 or (upper is not None and rate > upper):
                span = "[0, inf)" if upper is None else f"[0, {upper:g}]"
                raise error(f"{name} must be in {span}, got {rate!r}")

    @property
    def any_active(self) -> bool:
        """True if at least one fault rate is non-zero."""
        return any(getattr(self, name) > 0.0 for name in self.RATE_FIELDS)

    def with_seed(self, seed: int):
        """The same scenario under a different fault stream."""
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class FaultConfig(FaultRateConfig):
    """Declarative description of one fault-injection scenario.

    Counter faults are drawn per cluster per epoch: ``counter_dropout``
    is the probability the *whole* counter window reads zero (a dropped
    sensor sample), ``counter_stuck`` the probability the window
    re-delivers the previous epoch's values (a stale register), and
    ``counter_nan`` / ``counter_spike`` the per-counter probability of
    a NaN poisoning or a ``spike_magnitude``× outlier.  Actuation
    faults are drawn per decision: ``actuation_delay`` applies the
    decision one epoch late, ``actuation_drop`` discards it (levels
    hold).  All draws come from one stream seeded by ``seed``.
    """

    counter_dropout: float = 0.0
    counter_stuck: float = 0.0
    counter_nan: float = 0.0
    counter_spike: float = 0.0
    spike_magnitude: float = 1e3
    actuation_delay: float = 0.0
    actuation_drop: float = 0.0
    seed: int = 0

    RATE_FIELDS: ClassVar[tuple[str, ...]] = (
        "counter_dropout", "counter_stuck", "counter_nan", "counter_spike",
        "actuation_delay", "actuation_drop")

    def __post_init__(self) -> None:
        self._check_rates(FaultInjectionError, 1.0)
        if self.spike_magnitude <= 0:
            raise FaultInjectionError("spike_magnitude must be positive")


#: Scenario presets used by the ``repro-ssmdvfs faults`` sweep: each
#: maps one sweep rate onto the fault dimension it stresses.
FAULT_MODES = ("dropout", "stuck", "nan", "spike", "actuation")


def config_for_mode(mode: str, rate: float, seed: int = 0) -> FaultConfig:
    """A single-dimension :class:`FaultConfig` for a sweep point."""
    if mode == "dropout":
        return FaultConfig(counter_dropout=rate, seed=seed)
    if mode == "stuck":
        return FaultConfig(counter_stuck=rate, seed=seed)
    if mode == "nan":
        return FaultConfig(counter_nan=rate, seed=seed)
    if mode == "spike":
        return FaultConfig(counter_spike=rate, seed=seed)
    if mode == "actuation":
        return FaultConfig(actuation_delay=rate, actuation_drop=rate / 2,
                           seed=seed)
    raise FaultInjectionError(
        f"unknown fault mode {mode!r}; expected one of {FAULT_MODES}")


class FaultyPolicy:
    """Wrap a policy; corrupt what it observes and what it actuates.

    The wrapper sits *outside* any guard layer, mirroring deployment:
    sensor faults corrupt the record before the controller sees it, and
    actuation faults corrupt the controller's output — including a
    guard's fallback decision — before the simulator applies it.
    Injection counts are exposed through :meth:`observability_counters`
    (``fault_*`` names) so campaign ``--stats`` can report them.
    """

    def __init__(self, inner, config: FaultConfig) -> None:
        if not isinstance(config, FaultConfig):
            raise FaultInjectionError("config must be a FaultConfig")
        self.inner = inner
        self.config = config
        self.name = f"{inner.name}+faults"
        self._rng = np.random.default_rng(config.seed)
        self._previous: list[CounterSet] | None = None
        self._delayed = None
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self, simulator: GPUSimulator) -> None:
        """Derive this run's fault stream and reset the wrapped policy.

        The stream seed mixes the config seed with the run identity
        (:func:`derive_fault_seed`), so two tasks of the same campaign
        — different kernels or simulator seeds — draw independent
        fault sequences instead of replaying one stream in lockstep.
        """
        self._rng = np.random.default_rng(derive_fault_seed(
            self.config.seed, simulator.workload_name, simulator.seed))
        self._previous = None
        self._delayed = None
        self.counts = {}
        self.inner.reset(simulator)

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def observability_counters(self) -> dict[str, int]:
        """Injection counts, merged with the wrapped policy's counters."""
        merged = dict(self.counts)
        inner_counters = getattr(self.inner, "observability_counters", None)
        if callable(inner_counters):
            for name, amount in inner_counters().items():
                merged[name] = merged.get(name, 0) + amount
        return merged

    # ------------------------------------------------------------------
    def _corrupt_counters(self, counters: CounterSet,
                          previous: CounterSet | None) -> CounterSet:
        config = self.config
        rng = self._rng
        if config.counter_dropout and rng.random() < config.counter_dropout:
            self._count("fault_counter_dropout")
            return CounterSet()
        if (config.counter_stuck and previous is not None
                and rng.random() < config.counter_stuck):
            self._count("fault_counter_stuck")
            return previous.copy()
        vector = counters.as_vector()
        if config.counter_nan:
            mask = rng.random(NUM_COUNTERS) < config.counter_nan
            injected = int(mask.sum())
            if injected:
                vector[mask] = np.nan
                self._count("fault_counter_nan", injected)
        if config.counter_spike:
            mask = rng.random(NUM_COUNTERS) < config.counter_spike
            injected = int(mask.sum())
            if injected:
                vector[mask] *= config.spike_magnitude
                self._count("fault_counter_spike", injected)
        return CounterSet.from_vector(vector)

    def corrupt_record(self, record: EpochRecord) -> EpochRecord:
        """A fault-injected copy of one epoch record."""
        previous = self._previous
        cluster_counters = []
        for index, counters in enumerate(record.cluster_counters):
            prev = previous[index] if previous is not None else None
            cluster_counters.append(self._corrupt_counters(counters, prev))
        # The policy-visible mean view is rebuilt from the corrupted
        # per-cluster sets so the two stay consistent.
        self._previous = cluster_counters
        return EpochRecord(
            index=record.index,
            start_time_s=record.start_time_s,
            duration_s=record.duration_s,
            levels=record.levels,
            counters=CounterSet.average(cluster_counters),
            cluster_counters=cluster_counters,
            instructions=record.instructions,
            cluster_energy_j=record.cluster_energy_j,
            uncore_energy_j=record.uncore_energy_j,
            all_finished=record.all_finished,
            finish_time_s=record.finish_time_s,
        )

    def decide(self, record: EpochRecord):
        """Forward a corrupted record; fault the actuation of the result."""
        decision = self.inner.decide(self.corrupt_record(record))
        config = self.config
        if config.actuation_drop and self._rng.random() < config.actuation_drop:
            self._count("fault_actuation_drop")
            return list(record.levels)
        if config.actuation_delay and self._rng.random() < config.actuation_delay:
            self._count("fault_actuation_delay")
            delayed, self._delayed = self._delayed, decision
            return list(record.levels) if delayed is None else delayed
        if self._delayed is not None:
            delayed, self._delayed = self._delayed, None
            return delayed
        return decision


def build_faulty_policy(factory, config: FaultConfig, *, guard: bool = True,
                        **guard_kwargs):
    """``factory()`` wrapped for a fault campaign.

    Composition order is deployment's: the guard wraps the raw policy,
    the fault injector wraps the guard, so sensor faults hit the guard's
    sanitizer and actuation faults hit its fallback output.  A
    module-level function (not a closure) so
    ``functools.partial(build_faulty_policy, factory, config)`` remains
    picklable for process-pool campaigns.
    """
    from .core.guarded import GuardedController
    inner = factory()
    if guard:
        inner = GuardedController(inner, **guard_kwargs)
    return FaultyPolicy(inner, config)


# ---------------------------------------------------------------------------
# Node-level fleet faults
# ---------------------------------------------------------------------------

#: Node-level fault kinds understood by the fleet replay.
NODE_FAULT_KINDS = ("crash", "hang", "thermal", "sensor_storm")


@dataclass(frozen=True, order=True)
class NodeFaultEvent:
    """One node-level event of a fleet fault train.

    ``at_s`` is when the fault strikes (fleet simulation time),
    ``duration_s`` how long the outage or degradation lasts before the
    timed recovery.  ``magnitude`` is kind-specific: the temperature
    spike in deg C for ``thermal``, the service-time stretch factor for
    ``sensor_storm`` (the guarded controller rides its fallback through
    the storm, so affected jobs run slower), and unused for ``crash`` /
    ``hang``.  Ordering is by strike time with the node id and kind as
    deterministic tie-breaks, which is the order the replay consumes.
    """

    at_s: float
    node_id: int
    kind: str
    duration_s: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NODE_FAULT_KINDS:
            raise FleetFaultError(
                f"unknown node fault kind {self.kind!r}; "
                f"expected one of {NODE_FAULT_KINDS}")
        if self.at_s < 0:
            raise FleetFaultError("a fault cannot strike before t=0")
        if self.node_id < 0:
            raise FleetFaultError("node_id cannot be negative")
        if self.duration_s <= 0:
            raise FleetFaultError("fault duration must be positive")
        if self.magnitude <= 0:
            raise FleetFaultError("fault magnitude must be positive")

    @property
    def recovery_s(self) -> float:
        """When the timed recovery fires."""
        return self.at_s + self.duration_s

    def to_payload(self) -> dict:
        """JSON-ready dict."""
        return {"at_s": self.at_s, "node_id": self.node_id,
                "kind": self.kind, "duration_s": self.duration_s,
                "magnitude": self.magnitude}


@dataclass(frozen=True)
class NodeFaultConfig(FaultRateConfig):
    """Declarative description of one fleet-level fault scenario.

    Each ``*_rate`` is the *expected number of events of that kind per
    node over the plan horizon* (a Poisson intensity, so a rate of 0.5
    over 16 nodes draws ~8 events).  Outage durations are drawn
    exponentially with mean ``mean_outage_s``, floored at
    ``min_outage_s``.  ``thermal_spike_c`` is the injected temperature
    rise of a thermal-runaway event and ``storm_slowdown`` the service
    stretch a sensor-corruption storm imposes on jobs dispatched into
    it (the guard pins its fallback level, trading speed for safety).
    All draws come from one stream derived from ``seed``.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    thermal_rate: float = 0.0
    storm_rate: float = 0.0
    mean_outage_s: float = 300e-6
    min_outage_s: float = 30e-6
    thermal_spike_c: float = 45.0
    storm_slowdown: float = 1.5
    seed: int = 0

    RATE_FIELDS: ClassVar[tuple[str, ...]] = (
        "crash_rate", "hang_rate", "thermal_rate", "storm_rate")

    def __post_init__(self) -> None:
        self._check_rates(FleetFaultError, None)
        if self.min_outage_s <= 0 or self.mean_outage_s < self.min_outage_s:
            raise FleetFaultError(
                "outage durations need 0 < min_outage_s <= mean_outage_s")
        if self.thermal_spike_c <= 0:
            raise FleetFaultError("thermal_spike_c must be positive")
        if self.storm_slowdown < 1.0:
            raise FleetFaultError(
                "storm_slowdown must be >= 1 (a storm cannot speed "
                "jobs up)")


class FaultPlan:
    """A deterministic train of fault events in replay order.

    ``events`` is sorted on construction (events order by strike time
    first).  Subclasses add a seeded ``build`` classmethod and a
    ``validate_for`` topology check.
    """

    def __init__(self, events: Iterable = ()) -> None:
        self.events: tuple = tuple(sorted(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def counts_by_kind(self) -> dict[str, int]:
        """``{kind: event count}`` over the whole train."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_payload(self) -> list[dict]:
        """JSON-ready event list in replay order."""
        return [event.to_payload() for event in self.events]


class NodeFaultPlan(FaultPlan):
    """A deterministic, time-ordered train of node-level fault events.

    Built once per fleet replay from a :class:`NodeFaultConfig`; the
    same ``(config, num_nodes, horizon_s)`` triple always yields the
    identical event train, which is what keeps a faulted fleet replay
    byte-reproducible at any worker count.
    """

    @classmethod
    def build(cls, config: NodeFaultConfig, num_nodes: int,
              horizon_s: float) -> "NodeFaultPlan":
        """Draw a seeded fault train for ``num_nodes`` over ``horizon_s``."""
        if num_nodes < 1:
            raise FleetFaultError("a fault plan needs at least one node")
        if horizon_s <= 0:
            raise FleetFaultError("plan horizon must be positive")
        rng = np.random.default_rng(derive_fault_seed(
            config.seed, "node-plan", num_nodes))
        events: list[NodeFaultEvent] = []
        kind_rates = (("crash", config.crash_rate),
                      ("hang", config.hang_rate),
                      ("thermal", config.thermal_rate),
                      ("sensor_storm", config.storm_rate))
        for kind, rate in kind_rates:
            count = int(rng.poisson(rate * num_nodes)) if rate > 0 else 0
            for _ in range(count):
                at_s = float(rng.uniform(0.0, horizon_s))
                node_id = int(rng.integers(num_nodes))
                duration = max(config.min_outage_s, float(rng.exponential(
                    config.mean_outage_s)))
                if kind == "thermal":
                    magnitude = config.thermal_spike_c
                elif kind == "sensor_storm":
                    magnitude = config.storm_slowdown
                else:
                    magnitude = 1.0
                events.append(NodeFaultEvent(
                    at_s=at_s, node_id=node_id, kind=kind,
                    duration_s=duration, magnitude=magnitude))
        return cls(events)

    def validate_for(self, num_nodes: int) -> None:
        """Raise if any event targets a node outside ``[0, num_nodes)``."""
        for event in self.events:
            if event.node_id >= num_nodes:
                raise FleetFaultError(
                    f"fault event targets node {event.node_id} but the "
                    f"fleet has only {num_nodes} nodes")


# ---------------------------------------------------------------------------
# Serving-runtime faults
# ---------------------------------------------------------------------------

#: Fault kinds understood by the always-on serving runtime.  Worker
#: kinds target a worker id, telemetry kinds a stream id, and
#: ``poisoned_update`` / ``overload_burst`` are runtime-wide.
SERVE_FAULT_KINDS = ("worker_crash", "worker_hang", "inference_stall",
                     "telemetry_storm", "telemetry_gap", "poisoned_update",
                     "overload_burst")

#: Serve fault kinds aimed at a worker (``target`` is a worker id).
_SERVE_WORKER_KINDS = ("worker_crash", "worker_hang")

#: Serve fault kinds aimed at a telemetry stream.
_SERVE_STREAM_KINDS = ("telemetry_storm", "telemetry_gap")


@dataclass(frozen=True, order=True)
class ServeFaultEvent:
    """One event of a serving-runtime fault train.

    ``at_tick`` is when the fault strikes on the serving loop's integer
    tick clock; ``duration_ticks`` how long windowed faults (stalls,
    storms, gaps, bursts) stay active — crashes, hangs and poisoned
    updates are instantaneous triggers whose *consequences* play out
    through the supervisor / online-update machinery.  ``target`` is a
    worker id for worker kinds, a stream id for telemetry kinds, and
    ``-1`` for runtime-wide kinds.  ``magnitude`` is kind-specific: the
    latency stretch of an ``inference_stall``, the arrival multiplier
    of an ``overload_burst``, the duplication factor of a
    ``telemetry_storm``.  Ordering is by strike tick with target and
    kind as deterministic tie-breaks.
    """

    at_tick: int
    target: int
    kind: str
    duration_ticks: int = 1
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SERVE_FAULT_KINDS:
            raise ServeFaultError(
                f"unknown serve fault kind {self.kind!r}; "
                f"expected one of {SERVE_FAULT_KINDS}")
        if self.at_tick < 0:
            raise ServeFaultError("a fault cannot strike before tick 0")
        if self.target < -1:
            raise ServeFaultError("target must be an id or -1 (global)")
        if self.duration_ticks < 1:
            raise ServeFaultError("duration_ticks must be >= 1")
        if self.magnitude <= 0:
            raise ServeFaultError("fault magnitude must be positive")

    @property
    def end_tick(self) -> int:
        """First tick the windowed fault is no longer active."""
        return self.at_tick + self.duration_ticks

    def active_at(self, tick: int) -> bool:
        """True while a windowed fault covers ``tick``."""
        return self.at_tick <= tick < self.end_tick

    def to_payload(self) -> dict:
        """JSON-ready dict."""
        return {"at_tick": self.at_tick, "target": self.target,
                "kind": self.kind, "duration_ticks": self.duration_ticks,
                "magnitude": self.magnitude}


@dataclass(frozen=True)
class ServeFaultConfig(FaultRateConfig):
    """Declarative description of one serving-chaos scenario.

    ``crash_rate`` / ``hang_rate`` are expected events *per worker*
    over the horizon, ``storm_rate`` / ``gap_rate`` per stream, and
    ``stall_rate`` / ``poison_rate`` / ``burst_rate`` runtime-wide —
    all Poisson intensities drawn from one stream derived from
    ``seed``.  Windowed faults last ``min_duration_ticks`` to roughly
    ``mean_duration_ticks`` (exponential).  ``stall_stretch`` is the
    latency multiplier of an inference stall, ``burst_multiplier`` the
    arrival multiplier of an overload burst, ``storm_duplicates`` the
    duplication factor of a telemetry storm.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    stall_rate: float = 0.0
    storm_rate: float = 0.0
    gap_rate: float = 0.0
    poison_rate: float = 0.0
    burst_rate: float = 0.0
    mean_duration_ticks: float = 6.0
    min_duration_ticks: int = 2
    stall_stretch: float = 20.0
    burst_multiplier: float = 4.0
    storm_duplicates: float = 3.0
    seed: int = 0

    RATE_FIELDS: ClassVar[tuple[str, ...]] = (
        "crash_rate", "hang_rate", "stall_rate", "storm_rate", "gap_rate",
        "poison_rate", "burst_rate")

    def __post_init__(self) -> None:
        self._check_rates(ServeFaultError, None)
        if (self.min_duration_ticks < 1
                or self.mean_duration_ticks < self.min_duration_ticks):
            raise ServeFaultError(
                "durations need 1 <= min_duration_ticks <= "
                "mean_duration_ticks")
        if self.stall_stretch < 1.0:
            raise ServeFaultError("stall_stretch must be >= 1")
        if self.burst_multiplier < 1.0:
            raise ServeFaultError("burst_multiplier must be >= 1")
        if self.storm_duplicates < 1.0:
            raise ServeFaultError("storm_duplicates must be >= 1")


class ServeFaultPlan(FaultPlan):
    """A deterministic, tick-ordered train of serving-runtime faults.

    Built once per serving run from a :class:`ServeFaultConfig`; the
    same ``(config, num_workers, num_streams, horizon_ticks)`` tuple
    always yields the identical train, which is what keeps a chaotic
    serving replay byte-stable at any phase-1 worker count.
    """

    @classmethod
    def build(cls, config: ServeFaultConfig, num_workers: int,
              num_streams: int, horizon_ticks: int) -> "ServeFaultPlan":
        """Draw a seeded fault train for one serving run."""
        if num_workers < 1 or num_streams < 1:
            raise ServeFaultError(
                "a serve fault plan needs >= 1 worker and stream")
        if horizon_ticks < 1:
            raise ServeFaultError("plan horizon must be >= 1 tick")
        rng = np.random.default_rng(derive_fault_seed(
            config.seed, "serve-plan", num_workers, num_streams))
        events: list[ServeFaultEvent] = []
        kind_scales = (("worker_crash", config.crash_rate, num_workers),
                       ("worker_hang", config.hang_rate, num_workers),
                       ("inference_stall", config.stall_rate, 1),
                       ("telemetry_storm", config.storm_rate, num_streams),
                       ("telemetry_gap", config.gap_rate, num_streams),
                       ("poisoned_update", config.poison_rate, 1),
                       ("overload_burst", config.burst_rate, 1))
        for kind, rate, scale in kind_scales:
            count = int(rng.poisson(rate * scale)) if rate > 0 else 0
            for _ in range(count):
                at_tick = int(rng.integers(horizon_ticks))
                duration = max(config.min_duration_ticks, int(round(
                    rng.exponential(config.mean_duration_ticks))))
                if kind in _SERVE_WORKER_KINDS:
                    target = int(rng.integers(num_workers))
                elif kind in _SERVE_STREAM_KINDS:
                    target = int(rng.integers(num_streams))
                else:
                    target = -1
                if kind == "inference_stall":
                    magnitude = config.stall_stretch
                elif kind == "overload_burst":
                    magnitude = config.burst_multiplier
                elif kind == "telemetry_storm":
                    magnitude = config.storm_duplicates
                else:
                    magnitude = 1.0
                events.append(ServeFaultEvent(
                    at_tick=at_tick, target=target, kind=kind,
                    duration_ticks=duration, magnitude=magnitude))
        return cls(events)

    def validate_for(self, num_workers: int, num_streams: int) -> None:
        """Raise if any event targets outside the runtime's topology."""
        for event in self.events:
            if (event.kind in _SERVE_WORKER_KINDS
                    and event.target >= num_workers):
                raise ServeFaultError(
                    f"fault targets worker {event.target} but the "
                    f"runtime has {num_workers} workers")
            if (event.kind in _SERVE_STREAM_KINDS
                    and event.target >= num_streams):
                raise ServeFaultError(
                    f"fault targets stream {event.target} but the "
                    f"runtime has {num_streams} streams")


# ---------------------------------------------------------------------------
# Process-level campaign faults
# ---------------------------------------------------------------------------

class FlakyTask:
    """Picklable proxy injecting process faults into campaign tasks.

    Wraps a campaign task function; for each task it decides
    *deterministically* (from ``seed`` and the task's content hash)
    whether to fault, and the first ``faults_per_task`` attempts of a
    faulted task then crash the hosting worker (``mode="exit"``), hang
    it (``mode="hang"``) or raise :class:`FaultInjectionError`
    (``mode="raise"``).  Later attempts run the real task, so a
    retrying campaign converges to the fault-free result.  Attempt
    counting uses marker files under ``state_dir`` because a hard-killed
    worker can report nothing back through memory.
    """

    #: Worker exit code used by ``mode="exit"`` (diagnosable in logs).
    EXIT_CODE = 23

    def __init__(self, fn, state_dir: str | Path, *, fault_rate: float = 1.0,
                 mode: str = "exit", hang_s: float = 3600.0,
                 faults_per_task: int = 1, seed: int = 0) -> None:
        if mode not in ("exit", "hang", "raise"):
            raise FaultInjectionError(
                f"unknown fault mode {mode!r}; expected exit/hang/raise")
        if not 0.0 <= fault_rate <= 1.0:
            raise FaultInjectionError("fault_rate must be in [0, 1]")
        if faults_per_task < 0:
            raise FaultInjectionError("faults_per_task cannot be negative")
        self.fn = fn
        self.state_dir = Path(state_dir)
        self.fault_rate = float(fault_rate)
        self.mode = mode
        self.hang_s = float(hang_s)
        self.faults_per_task = int(faults_per_task)
        self.seed = int(seed)

    def _task_key(self, task) -> str:
        try:
            blob = pickle.dumps(task)
        except Exception:  # unpicklable task: fall back to repr identity
            blob = repr(task).encode()
        return hashlib.sha256(
            str(self.seed).encode() + b":" + blob).hexdigest()[:16]

    def _should_fault(self, key: str) -> bool:
        if self.fault_rate >= 1.0:
            return True
        draw = int(hashlib.sha256(f"draw:{key}".encode()).hexdigest()[:8], 16)
        return draw / 0xFFFFFFFF < self.fault_rate

    def __call__(self, task):
        key = self._task_key(task)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        attempts = len(list(self.state_dir.glob(f"{key}.*")))
        if attempts < self.faults_per_task and self._should_fault(key):
            (self.state_dir / f"{key}.{attempts}").touch()
            if self.mode == "exit":
                os._exit(self.EXIT_CODE)
            if self.mode == "hang":
                time.sleep(self.hang_s)
            raise FaultInjectionError(
                f"injected task fault (attempt {attempts}, key {key})")
        return self.fn(task)
