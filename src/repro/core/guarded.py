"""Guarded runtime controller: sanitize, validate, degrade gracefully.

A closed-loop DVFS controller trusts two inputs it does not control:
the performance counters it observes and the outputs of its learned
models.  :class:`GuardedController` wraps any policy with three layers
of protection:

1. **Counter sanitization** — NaN/Inf values are zeroed, negatives
   clamped, implausibly large values capped, and a physically
   impossible all-zero window (real epochs always report static power)
   is flagged as sensor dropout.  The wrapped policy only ever sees
   finite, range-checked counters.
2. **Decision validation** — whatever the policy returns is checked
   with :func:`repro.core.policy.validate_decision`; exceptions from
   the policy itself are contained.  An invalid decision never reaches
   the V/f actuator.
3. **Graceful degradation** — repeated anomalies trip the guard into a
   safe static-frequency fallback (the default operating point: the
   baseline every metric is normalised against, so the preset cannot
   be violated from there).  After a cooldown the guard enters a
   probation window where the policy is consulted again; a clean
   probation restores normal operation, any anomaly sends it back to
   fallback.

State machine::

    ACTIVE --(anomaly streak >= trip_threshold)--> FALLBACK
    FALLBACK --(FALLBACK_EPOCHS elapsed)--------> PROBATION
    PROBATION --(PROBATION_EPOCHS clean)--------> ACTIVE
    PROBATION --(any anomaly)-------------------> FALLBACK

A fourth, *model-lifecycle* layer rides on the same machine: when a
:class:`~repro.core.drift.DriftMonitor` is attached, every consulted
epoch feeds the wrapped controller's calibration-gap signal into it.
A confirmed drift alarm hot-swaps the wrapped policy for one rebuilt
from the artifact registry's last-known-good pair (via a
:class:`~repro.core.drift.RollbackManager`) and re-enters PROBATION to
validate it; when nothing in the registry verifies, the guard pins
itself in FALLBACK — the static default operating point cannot violate
the preset — for the rest of the run.  Hot-swaps carry a cooldown
(:data:`SWAP_COOLDOWN_EPOCHS`): a re-alarm before it elapses is counted
as ``drift_swap_suppressed`` and ridden out in plain FALLBACK instead of
swapping again, which prevents two half-bad registry pairs from
oscillating A -> B -> A forever.

The guard counts its trips in ``counters`` (``guard_*``, plus the
``drift_*`` / ``rollback_*`` reactions it takes).
:func:`~repro.core.policy.policy_counters` folds them together with
the wrapped policy's, the drift monitor's and the rollback manager's,
and the evaluation runner adds that fold to campaign ``--stats``.  A
hot-swap first moves the retiring policy's counters into the guard's,
so its evidence outlives the swap.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from .policy import BasePolicy, policy_counters, validate_decision

#: Guard states (strings so traces and reprs read naturally).
ACTIVE = "active"
FALLBACK = "fallback"
PROBATION = "probation"

#: Epochs the guard holds the fallback level before probation.
FALLBACK_EPOCHS = 20
#: Clean consulted epochs that end probation.
PROBATION_EPOCHS = 10
#: Counter values above this are implausible and clamped to it.
MAX_COUNTER_VALUE = 1e15
#: Minimum epochs between drift hot-swaps.  A freshly swapped pair that
#: re-alarms inside this window cannot trigger another swap (which
#: would oscillate through the registry); the guard rides out the alarm
#: in plain FALLBACK instead.
SWAP_COOLDOWN_EPOCHS = 50


class GuardedController(BasePolicy):
    """Wrap a policy with input sanitization and a safe-fallback guard."""

    def __init__(self, inner, trip_threshold: int = 3,
                 drift_monitor=None, rollback=None) -> None:
        super().__init__()
        if trip_threshold < 1:
            raise PolicyError("trip_threshold must be >= 1")
        self.inner = inner
        self.name = f"{inner.name}+guard"
        self.trip_threshold = int(trip_threshold)
        #: Optional :class:`~repro.core.drift.DriftMonitor`; fed from
        #: the wrapped policy's ``drift_signal()`` on consulted epochs.
        self.drift_monitor = drift_monitor
        #: Optional :class:`~repro.core.drift.RollbackManager` used to
        #: hot-swap the wrapped policy on a confirmed drift alarm.
        self.rollback = rollback
        self.state = ACTIVE
        self.state_trace: list[str] = []
        self._streak = 0
        self._state_epochs = 0
        self._fallback_level = 0
        self._pinned_fallback = False
        #: Epochs since the last drift hot-swap (None before any swap).
        self._since_swap: int | None = None

    # ------------------------------------------------------------------
    def reset(self, simulator: GPUSimulator) -> None:
        """Reset guard state and the wrapped policy."""
        super().reset(simulator)
        self._fallback_level = simulator.arch.vf_table.default_level
        self.state = ACTIVE
        self.state_trace = []
        self.counters = Counter()
        self._streak = 0
        self._state_epochs = 0
        self._pinned_fallback = False
        self._since_swap = None
        if self.drift_monitor is not None:
            self.drift_monitor.reset()
        self.inner.reset(simulator)

    # ------------------------------------------------------------------
    def _sanitize_record(self, record: EpochRecord
                         ) -> tuple[EpochRecord, int]:
        """The record with finite, range-clamped counters, plus anomalies.

        The epoch's per-cluster counters are fixed as one
        ``(clusters, NUM_COUNTERS)`` matrix; a record that needs no fix
        is returned as the same object.
        """
        assert self.simulator is not None
        matrix = CounterSet.stack(record.cluster_counters)
        nonfinite = ~np.isfinite(matrix)
        matrix[nonfinite] = 0.0
        negative = matrix < 0.0
        matrix[negative] = 0.0
        huge = matrix > MAX_COUNTER_VALUE
        matrix[huge] = MAX_COUNTER_VALUE
        # Every real epoch reports nonzero static power; an all-zero
        # window from a still-running cluster is a dropped sensor sample.
        dropout = sum(not cluster.finished for cluster, reported
                      in zip(self.simulator.clusters,
                             matrix.any(axis=1).tolist())
                      if not reported)
        anomalies = 0
        for name, bad in (
                ("guard_counter_nonfinite", np.count_nonzero(nonfinite)),
                ("guard_counter_negative", np.count_nonzero(negative)),
                ("guard_counter_clamped", np.count_nonzero(huge)),
                ("guard_counter_dropout", dropout)):
            bad = int(bad)
            if bad:
                self.counters[name] += bad
                anomalies += bad
        if anomalies == 0:
            return record, 0
        sanitized = EpochRecord(
            index=record.index,
            start_time_s=record.start_time_s,
            duration_s=record.duration_s,
            levels=record.levels,
            counters=CounterSet.from_vector(matrix.mean(axis=0)),
            cluster_counters=[CounterSet.from_vector(row) for row in matrix],
            instructions=record.instructions,
            cluster_energy_j=record.cluster_energy_j,
            uncore_energy_j=record.uncore_energy_j,
            all_finished=record.all_finished,
            finish_time_s=record.finish_time_s,
        )
        return sanitized, anomalies

    # ------------------------------------------------------------------
    def _fallback_decision(self) -> list[int]:
        assert self.simulator is not None
        return [self._fallback_level] * len(self.simulator.clusters)

    def _consult(self, record: EpochRecord) -> tuple[list[int] | None, int]:
        """The inner policy's validated decision, or None plus anomalies."""
        assert self.simulator is not None
        try:
            decision = self.inner.decide(record)
        except Exception as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.counters["guard_policy_error"] += 1
            return None, 1
        try:
            levels = validate_decision(decision,
                                       self.simulator.arch.vf_table.num_levels,
                                       len(self.simulator.clusters))
        except PolicyError:
            self.counters["guard_decision_invalid"] += 1
            return None, 1
        return levels, 0

    def decide(self, record: EpochRecord):
        """Sanitize, consult (unless in fallback), update the guard FSM."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        if self._since_swap is not None:
            self._since_swap += 1
        record, anomalies = self._sanitize_record(record)

        decision: list[int] | None = None
        consulted = False
        if self.state == FALLBACK:
            self.counters["guard_fallback_epochs"] += 1
            self._state_epochs += 1
            if (not self._pinned_fallback
                    and self._state_epochs >= FALLBACK_EPOCHS):
                self._enter(PROBATION)
                # A stateful policy (e.g. the Calibrator loop) has been
                # blind during fallback; restart it cleanly for probation.
                self.inner.reset(self.simulator)
        else:
            consulted = True
            decision, consult_anomalies = self._consult(record)
            anomalies += consult_anomalies

        if anomalies:
            self._streak += 1
            if self.state == PROBATION:
                self.counters["guard_probation_failures"] += 1
                self._enter(FALLBACK)
                decision = None
            elif self.state == ACTIVE and self._streak >= self.trip_threshold:
                self.counters["guard_trips"] += 1
                self._enter(FALLBACK)
                decision = None
        else:
            self._streak = 0
            if self.state == PROBATION:
                self._state_epochs += 1
                if self._state_epochs >= PROBATION_EPOCHS:
                    self.counters["guard_recoveries"] += 1
                    self._enter(ACTIVE)

        # Model-lifecycle layer: on every epoch where the wrapped policy
        # actually ran (and the FSM still trusts it), fold its
        # calibration gap into the drift monitor and react to alarms.
        if (consulted and self.drift_monitor is not None
                and self.state in (ACTIVE, PROBATION)):
            signal = getattr(self.inner, "drift_signal", None)
            gap, violation = (signal() if callable(signal)
                              else (None, False))
            if self.drift_monitor.update(gap, violation):
                decision = self._handle_drift()

        self.state_trace.append(self.state)
        if self.state == FALLBACK or decision is None:
            return self._fallback_decision()
        return decision

    def _handle_drift(self) -> None:
        """React to a confirmed drift alarm: hot-swap or pin fallback."""
        assert self.simulator is not None
        self.counters["drift_trips"] += 1
        if (self._since_swap is not None
                and self._since_swap < SWAP_COOLDOWN_EPOCHS):
            # Hot-swap hysteresis: the pair serving now was itself
            # swapped in fewer than ``SWAP_COOLDOWN_EPOCHS`` ago.  A
            # re-alarm this early means swapping is not converging
            # (classic rollback oscillation: A alarms -> swap to B,
            # B alarms -> swap back to A, ...), so suppress the swap
            # and ride the alarm out in plain FALLBACK — probation
            # and the next alarm outside the window stay available.
            self.counters["drift_swap_suppressed"] += 1
            self.drift_monitor.reset()
            self._enter(FALLBACK)
            return None
        replacement = (self.rollback.recover()
                       if self.rollback is not None else None)
        if replacement is not None:
            # Hot-swap to the registry's last-known-good pair and let
            # PROBATION validate it; this epoch still actuates the safe
            # fallback level.  The retiring pair's counters are its
            # evidence: keep them in the guard's own.
            self.counters.update(policy_counters(self.inner))
            self.inner = replacement
            self.inner.reset(self.simulator)
            self.drift_monitor.reset()
            self.counters["rollback_hot_swaps"] += 1
            self._since_swap = 0
            self._enter(PROBATION)
        else:
            # Nothing in the registry verifies: the model pair cannot
            # be trusted again this run, so hold the static fallback
            # (the baseline operating point cannot violate the preset).
            self.drift_monitor.reset()
            self._pinned_fallback = True
            self.counters["rollback_pinned_fallback"] += 1
            self._enter(FALLBACK)
        return None

    def _enter(self, state: str) -> None:
        self.state = state
        self._state_epochs = 0
        self._streak = 0
