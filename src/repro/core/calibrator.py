"""Calibrator: the regression head of SSMDVFS (§II, §III).

Given the Decision-maker's inputs plus its chosen level, the Calibrator
predicts the instruction count of the *next* epoch.  At runtime the gap
between this prediction and the count actually observed drives the
working-preset adjustment that keeps end-to-end performance loss under
the user's preset.

The underlying regressor is trained on the *throughput ratio*
(next-window count / current-window count), a scale-free target; this
wrapper multiplies it back by the live instruction counter so callers
see the absolute prediction of the paper's workflow.
"""

from __future__ import annotations

import numpy as np

from ..datagen.features import FeatureExtractor, FeatureScaler
from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..nn.mlp import MLP


class Calibrator:
    """Runtime wrapper around the trained regressor."""

    def __init__(self, model: MLP, extractor: FeatureExtractor,
                 scaler: FeatureScaler) -> None:
        if model.output_size != 1:
            raise PolicyError("calibrator must have a single output")
        expected = extractor.width + 1  # features + chosen level
        if model.input_size != expected:
            raise PolicyError(
                f"calibrator expects width {model.input_size}, feature set "
                f"implies {expected}"
            )
        if not scaler.fitted:
            raise PolicyError("scaler must be fitted")
        self.model = model
        self.extractor = extractor
        self.scaler = scaler
        # Reusable (n, features + 1) input buffer for batched inference;
        # grown/replaced on demand when the batch size changes.
        self._raw_buffer: np.ndarray | None = None
        #: Non-finite raw model outputs seen so far.  A trained, healthy
        #: regressor never emits NaN/Inf on sanitized inputs, so this is
        #: a direct staleness/corruption symptom the drift layer reads.
        self.nonfinite_predictions = 0

    def predict_ratio(self, counters: CounterSet, level: int) -> float:
        """Predicted next-window / current-window throughput ratio: a
        one-row :meth:`predict_ratios`."""
        return float(self.predict_ratios([counters], [level])[0])

    def predict_ratios(self, counter_sets: list[CounterSet],
                       levels: list[int]) -> np.ndarray:
        """Throughput ratios for a cluster batch in one forward pass."""
        if not counter_sets:
            raise PolicyError("no counters given")
        if len(counter_sets) != len(levels):
            raise PolicyError("counter/level batch size mismatch")
        n = len(counter_sets)
        width = self.extractor.width + 1
        buffer = self._raw_buffer
        if buffer is None or buffer.shape[0] != n:
            buffer = self._raw_buffer = np.empty((n, width),
                                                 dtype=np.float64)
        self.extractor.extract_matrix(counter_sets, out=buffer[:, :-1])
        buffer[:, -1] = [float(level) for level in levels]
        x = self.scaler.transform(buffer)
        predictions = self.model.predict_scalar(x)
        bad = int((~np.isfinite(predictions)).sum())
        if bad:
            self.nonfinite_predictions += bad
        return np.maximum(0.0, predictions)

    def __getstate__(self) -> dict:
        # The scratch buffer is per-process state: dropping it keeps
        # pickles (checkpoints, pool tasks) lean.
        state = self.__dict__.copy()
        state["_raw_buffer"] = None
        return state

    def predict_instructions(self, counters: CounterSet,
                             level: int) -> float:
        """Predicted per-cluster instructions of the next epoch: a
        one-row :meth:`predict_instructions_batch`."""
        return self.predict_instructions_batch([counters], [level])[0]

    def predict_instructions_batch(self, counter_sets: list[CounterSet],
                                   levels: list[int]) -> list[float]:
        """Predicted next-epoch instructions for a cluster batch."""
        ratios = self.predict_ratios(counter_sets, levels)
        return [float(ratio) * counters["inst_total"]
                for ratio, counters in zip(ratios, counter_sets)]
