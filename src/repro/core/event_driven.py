"""Event-driven SSMDVFS (extension).

The paper runs one inference every 10 µs epoch.  Most epochs sit deep
inside a stationary phase where the previous decision is still optimal,
so those inferences are wasted energy (§V-D budgets 1.65 % of each
epoch for them).  This extension adds a lightweight phase-change
detector in front of the Decision-maker: inference runs only when the
observed counters drift from the phase the last decision was made for
(or a refresh interval expires), and otherwise the previous levels are
held.

The detector is a per-cluster relative-change test on the same
features the Decision-maker consumes — hardware-wise a handful of
comparators, orders of magnitude cheaper than the MLP.
"""

from __future__ import annotations

import numpy as np

from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from .combined import SSMDVFSModel
from .controller import SSMDVFSController

#: Relative feature drift beyond which a cluster counts as changing phase.
CHANGE_THRESHOLD = 0.35
#: Epochs after which every cluster infers again, drifted or not.
REFRESH_EPOCHS = 8

class PhaseChangeDetector:
    """Relative-drift detector over a feature vector."""

    def __init__(self) -> None:
        self._reference: np.ndarray | None = None

    def reset(self) -> None:
        """Forget the reference phase."""
        self._reference = None

    def rearm(self, features: np.ndarray) -> None:
        """Set the current features as the new reference phase."""
        self._reference = np.asarray(features, dtype=np.float64).copy()

    def changed(self, features: np.ndarray) -> bool:
        """True when features drifted beyond :data:`CHANGE_THRESHOLD`."""
        if self._reference is None:
            return True
        features = np.asarray(features, dtype=np.float64)
        scale = np.maximum(np.abs(self._reference), 1e-9)
        drift = float(np.max(np.abs(features - self._reference) / scale))
        return drift > CHANGE_THRESHOLD


class EventDrivenController(SSMDVFSController):
    """SSMDVFS that infers only on phase changes (plus a refresh)."""

    def __init__(self, model: SSMDVFSModel, preset: float) -> None:
        super().__init__(model, preset)
        self.name = f"ssmdvfs-event-p{int(round(preset * 100))}"
        self._detectors: list[PhaseChangeDetector] = []
        self._held_levels: list[int] | None = None
        self._since_refresh = 0
        self.inference_count = 0
        self.hold_count = 0

    def reset(self, simulator: GPUSimulator) -> None:
        """Reset detectors, hold state and inference statistics."""
        super().reset(simulator)
        self._detectors = [PhaseChangeDetector()
                           for _ in simulator.clusters]
        self._held_levels = None
        self._since_refresh = 0
        self.inference_count = 0
        self.hold_count = 0

    def _features(self, counters: CounterSet) -> np.ndarray:
        return self.model.decision_maker.extractor.extract(counters)

    def decide(self, record: EpochRecord):
        """Calibrate, then infer only for drifted (or refreshed) clusters."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        # Calibration still runs every epoch (it is cheap bookkeeping on
        # the predictions made for inferred clusters).
        self._calibrate(record)
        self.preset_trace.append(self.working_preset)

        self._since_refresh += 1
        infer_all = (self._held_levels is None
                     or self._since_refresh >= REFRESH_EPOCHS)
        decision_maker = self.model.decision_maker
        calibrator = self.model.calibrator

        levels: list[int] = []
        self._pending = []
        for index, (detector, counters) in enumerate(
                zip(self._detectors, record.cluster_counters)):
            if counters["inst_total"] <= 0:
                levels.append(self.simulator.arch.vf_table.min_level)
                continue
            features = self._features(counters)
            # Per-cluster gate: only this cluster's drift forces *its*
            # inference; the other 23 clusters keep holding.
            if infer_all or detector.changed(features):
                level = decision_maker.predict_level(counters,
                                                     self.working_preset)
                self._pending.append((index, calibrator.predict_instructions(
                    counters, level)))
                detector.rearm(features)
                self.inference_count += 1
            else:
                level = self._held_levels[index]
                self.hold_count += 1
            levels.append(level)
        if infer_all:
            self._since_refresh = 0
        self._held_levels = list(levels)
        return levels

    @property
    def inference_savings(self) -> float:
        """Fraction of cluster-epoch inferences skipped."""
        total = self.inference_count + self.hold_count
        return self.hold_count / total if total else 0.0
