"""The SSMDVFS runtime controller (Fig. 1, §II).

Every 10 µs epoch:

1. **Calibrate** — compare the instruction count the Calibrator
   predicted for the epoch that just ended with the count actually
   observed.  The comparison is *cumulative* over the run: end-to-end
   performance loss is a property of total progress, so a persistent
   shortfall (prediction ahead of reality beyond a deadband) tightens
   the *working* preset — pushing the Decision-maker towards faster
   levels — while on-schedule progress relaxes it back toward the
   user's preset.  Single-epoch prediction noise washes out of the
   cumulative ratio instead of whipsawing the operating point.
2. **Decide** — feed the epoch's counters plus the working preset into
   the Decision-maker to get each cluster's next level.
3. **Predict** — feed the same counters, the *original* preset and the
   chosen level into the Calibrator to set up the next comparison.
"""

from __future__ import annotations

import math
from collections import Counter

from ..errors import PolicyError
from ..gpu.simulator import EpochRecord, GPUSimulator
from .combined import SSMDVFSModel
from .policy import BasePolicy

#: Cumulative shortfall (fraction of predicted progress) tolerated before
#: the working preset tightens.
DEADBAND = 0.06
#: Floor of the working preset: the training grid's smallest preset,
#: below which the Decision-maker would operate out of distribution.
MIN_PRESET = 0.02
#: Working-preset cut per unit of cumulative shortfall beyond the
#: deadband, as a multiple of the user preset.
GAIN = 1.0
#: Fraction of the gap to the user preset closed per on-schedule epoch.
RELAX = 0.4


class SSMDVFSController(BasePolicy):
    """Self-calibrated supervised DVFS policy."""

    def __init__(self, model: SSMDVFSModel, preset: float,
                 use_calibrator: bool = True) -> None:
        super().__init__()
        if preset < 0:
            raise PolicyError("preset cannot be negative")
        self.model = model
        self.preset = float(preset)
        self.use_calibrator = use_calibrator
        # A preset below MIN_PRESET is its own floor.
        self.min_preset = min(MIN_PRESET, float(preset))
        tag = "" if use_calibrator else "-nocal"
        self.name = f"ssmdvfs{tag}-p{int(round(preset * 100))}"
        self.working_preset = self.preset
        self._pending: list[tuple[int, float]] = []
        self._fused_staged: tuple[int, list[int]] | None = None
        self._cumulative_predicted = 0.0
        self._cumulative_actual = 0.0
        self._log_bias = 0.0
        self.preset_trace: list[float] = []
        #: ``calibration_anomalies``: non-finite Calibrator predictions /
        #: observations dropped by the calibration loop instead of
        #: poisoning the working preset.  Kept at 0 from the start so
        #: every export carries it.
        self.counters = Counter(calibration_anomalies=0)
        #: Latest *raw* (pre-bias-correction) predicted-vs-actual gap,
        #: normalised to [-1, 1]; ``None`` until the first comparison.
        #: This is the drift monitor's primary signal — the bias
        #: tracker below deliberately absorbs systematic offsets from
        #: the preset loop, so drift detection must look upstream of it.
        self.last_gap: float | None = None
        #: True while the working preset is pinned at its floor — the
        #: controller is compensating as hard as it can, the runtime
        #: proxy for realised preset-violation pressure.
        self.last_violation = False

    #: Exponential decay of the cumulative comparison (a ~10-epoch
    #: sliding window of shortfall).
    CUMULATIVE_DECAY = 0.9
    #: Adaptation rate of the multiplicative prediction-bias tracker.
    BIAS_RATE = 0.25

    def reset(self, simulator: GPUSimulator) -> None:
        """Reset calibration state and start at the default point."""
        super().reset(simulator)
        self.working_preset = self.preset
        self._pending = []
        self._fused_staged = None
        self._cumulative_predicted = 0.0
        self._cumulative_actual = 0.0
        self._log_bias = 0.0
        self.preset_trace = []
        self.counters = Counter(calibration_anomalies=0)
        self.last_gap = None
        self.last_violation = False
        simulator.set_all_levels(simulator.arch.vf_table.default_level)

    def drift_signal(self) -> tuple[float | None, bool]:
        """The (gap, violation-pressure) pair the drift monitor consumes.

        ``gap`` is the latest raw predicted-vs-actual instruction gap,
        ``(predicted - actual) / max(predicted, actual)`` in [-1, 1] —
        near zero for a healthy Calibrator, saturating toward ±1 when
        the deployed pair has gone stale.  ``violation`` is True while
        the working preset sits at its floor (the self-calibration loop
        out of headroom).
        """
        return self.last_gap, self.last_violation

    # ------------------------------------------------------------------
    def _calibrate(self, record: EpochRecord) -> None:
        if not self.use_calibrator or not self._pending:
            return
        # Compare each prediction against the *same cluster's* observed
        # count, skipping clusters that drained during the epoch — the
        # end-of-kernel ramp-down is not a performance shortfall.
        predicted_sum = 0.0
        actual_sum = 0.0
        for cluster_index, predicted in self._pending:
            if (self.simulator is not None
                    and self.simulator.clusters[cluster_index].finished):
                continue
            actual = record.cluster_counters[cluster_index]["inst_total"]
            # A NaN/Inf prediction (a poisoned Calibrator) or observation
            # (a corrupted counter) must not enter the cumulative ratio:
            # one non-finite term would stick the working preset at NaN
            # for the rest of the run.  Drop the pair and count it.
            if not (math.isfinite(predicted) and math.isfinite(actual)):
                self.counters["calibration_anomalies"] += 1
                continue
            predicted_sum += predicted
            actual_sum += actual
        self._pending = []
        if actual_sum > 0.0:
            # Raw gap for online drift detection, taken *before* the
            # bias tracker: a stale Calibrator's systematic error gets
            # absorbed below, so this is the only place it stays
            # visible.  Symmetric normalisation bounds it in [-1, 1]
            # (an all-zero prediction reads as -1, full shortfall).
            self.last_gap = ((predicted_sum - actual_sum)
                             / max(predicted_sum, actual_sum))
        if predicted_sum <= 0 or actual_sum <= 0:
            return
        # Self-calibration of the Calibrator itself: a slow multiplicative
        # tracker absorbs its systematic prediction bias, so the preset
        # feedback reacts to genuine shortfalls, not to a constant offset.
        # A real slowdown still trips the deadband below before the bias
        # tracker can absorb it (the preset then recovers the loss).
        corrected = predicted_sum * math.exp(self._log_bias)
        self._log_bias += self.BIAS_RATE * (
            math.log(actual_sum / predicted_sum) - self._log_bias)
        # Spiked counters can drive the observed ratio to extremes; a
        # clamped bias keeps math.exp above in (finite) range forever.
        self._log_bias = min(30.0, max(-30.0, self._log_bias))
        self._cumulative_predicted *= self.CUMULATIVE_DECAY
        self._cumulative_actual *= self.CUMULATIVE_DECAY
        self._cumulative_predicted += corrected
        self._cumulative_actual += actual_sum
        error = ((self._cumulative_predicted - self._cumulative_actual)
                 / self._cumulative_predicted)
        if not math.isfinite(error):
            # Decayed-to-zero denominators under heavy fault injection;
            # hold the working preset rather than propagate the NaN.
            self.counters["calibration_anomalies"] += 1
            self._cumulative_predicted = 0.0
            self._cumulative_actual = 0.0
            return
        if error > DEADBAND:
            # Persistently slower than promised beyond the model's noise
            # floor: tighten the working preset.
            self.working_preset -= GAIN * error * self.preset
        else:
            # On/ahead of schedule: relax back toward the user preset.
            self.working_preset += RELAX * (self.preset
                                                 - self.working_preset)
        self.working_preset = min(self.preset,
                                  max(self.min_preset, self.working_preset))
        if not math.isfinite(self.working_preset):
            self.counters["calibration_anomalies"] += 1
            self.working_preset = self.preset
        self.last_violation = (self.preset > self.min_preset
                               and self.working_preset
                               <= self.min_preset + 1e-12)

    # ------------------------------------------------------------------
    # Fused-engine hooks.  The fused campaign engine splits ``decide``
    # into three phases so the Decision-maker/Calibrator forward passes
    # of *several co-simulated tasks* can be stacked into one batched
    # call: ``fused_prepare`` runs calibration and stages this task's
    # active-cluster rows, the engine concatenates rows across tasks
    # (with each task's own working preset per row) and runs the model
    # once, then ``fused_commit`` folds this task's slice of the
    # predictions back into levels/pending state.  ``fused_fallback``
    # completes a prepared decision solo — the path taken when the task
    # cannot join a cross-task batch.  ``decide`` is exactly
    # prepare → (own forward pass) → commit, so serial and fused runs
    # share one code path and batching can never change semantics.
    # Stacking is bit-identical because every model stage is rowwise
    # (GEMMs, elementwise scaler/activations, per-row argmax) and each
    # task always contributes >= 2 rows to a shared batch (BLAS takes a
    # different single-row code path whose rounding differs by ~1 ULP).
    def fused_prepare(self, record: EpochRecord):
        """Calibrate and stage this epoch's batchable inference rows.

        Returns the active-cluster :class:`CounterSet` rows to batch, or
        ``None`` when the decision cannot join a cross-task batch (fewer
        than two active clusters: single rows must run their own forward
        pass for bit-identity with the serial path).  Exactly one of :meth:`fused_commit` /
        :meth:`fused_fallback` must complete each prepared decision.
        """
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        self._calibrate(record)
        self.preset_trace.append(self.working_preset)
        min_level = self.simulator.arch.vf_table.min_level
        active_indices = [index for index, counters
                          in enumerate(record.cluster_counters)
                          if counters["inst_total"] > 0]
        self._fused_staged = (min_level, active_indices)
        if len(active_indices) < 2:
            return None
        return [record.cluster_counters[index] for index in active_indices]

    def fused_commit(self, record: EpochRecord, predicted_levels,
                     predicted_insts):
        """Fold this task's slice of a batched prediction into levels."""
        min_level, active_indices = self._fused_staged
        self._fused_staged = None
        levels = [min_level] * len(record.cluster_counters)
        self._pending = []
        for index, level, predicted in zip(
                active_indices, predicted_levels, predicted_insts):
            levels[index] = int(level)
            self._pending.append((index, predicted))
        return levels

    def fused_fallback(self, record: EpochRecord):
        """Complete a prepared decision without cross-task batching."""
        decision_maker = self.model.decision_maker
        calibrator = self.model.calibrator
        min_level, active_indices = self._fused_staged
        self._fused_staged = None
        levels = [min_level] * len(record.cluster_counters)
        self._pending = []
        if active_indices:
            active_counters = [record.cluster_counters[index]
                               for index in active_indices]
            predicted_levels = decision_maker.predict_levels(
                active_counters, self.working_preset)
            predicted_insts = calibrator.predict_instructions_batch(
                active_counters, predicted_levels)
            for index, level, predicted in zip(
                    active_indices, predicted_levels, predicted_insts):
                levels[index] = level
                self._pending.append((index, predicted))
        return levels

    def decide(self, record: EpochRecord):
        """Calibrate, then pick each cluster's next operating point."""
        rows = self.fused_prepare(record)
        if rows is None:
            return self.fused_fallback(record)
        predicted_levels = self.model.decision_maker.predict_levels(
            rows, self.working_preset)
        predicted_insts = self.model.calibrator.predict_instructions_batch(
            rows, predicted_levels)
        return self.fused_commit(record, predicted_levels, predicted_insts)
