"""Decision-maker: the classification head of SSMDVFS (§II, §III).

Given one epoch's performance counters and a performance-loss preset,
it outputs the minimum V/f level expected to keep the loss within the
preset.  The wrapper owns everything inference needs at runtime: the
feature extractor (counter subset + normalisation), the fitted scaler,
and the trained MLP.
"""

from __future__ import annotations

import numpy as np

from ..datagen.features import FeatureExtractor, FeatureScaler
from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..nn.mlp import MLP


class DecisionMaker:
    """Runtime wrapper around the trained classifier."""

    def __init__(self, model: MLP, extractor: FeatureExtractor,
                 scaler: FeatureScaler, num_levels: int) -> None:
        if model.output_size != num_levels:
            raise PolicyError(
                f"classifier has {model.output_size} outputs, expected "
                f"{num_levels} levels"
            )
        expected = extractor.width + 1  # features + loss preset
        if model.input_size != expected:
            raise PolicyError(
                f"classifier expects width {model.input_size}, feature set "
                f"implies {expected}"
            )
        if not scaler.fitted:
            raise PolicyError("scaler must be fitted")
        self.model = model
        self.extractor = extractor
        self.scaler = scaler
        self.num_levels = num_levels
        # Reusable (n, features + 1) input buffer for batched inference;
        # grown/replaced on demand when the batch size changes.
        self._raw_buffer: np.ndarray | None = None

    def _input_matrix(self, counter_sets: list[CounterSet],
                      preset) -> np.ndarray:
        """Scaled (n, features + 1) input rows for a cluster batch.

        ``preset`` is either one scalar broadcast to every row (the
        per-cluster path within one simulation) or an ``(n,)`` array of
        per-row presets (the fused engine batching clusters across
        tasks, each task carrying its own working preset).
        """
        n = len(counter_sets)
        width = self.extractor.width + 1
        buffer = self._raw_buffer
        if buffer is None or buffer.shape[0] != n:
            buffer = self._raw_buffer = np.empty((n, width),
                                                 dtype=np.float64)
        self.extractor.extract_matrix(counter_sets, out=buffer[:, :-1])
        buffer[:, -1] = preset
        return self.scaler.transform(buffer)

    def __getstate__(self) -> dict:
        # The scratch buffer is per-process state: dropping it keeps
        # pickles (checkpoints, pool tasks) lean.
        state = self.__dict__.copy()
        state["_raw_buffer"] = None
        return state

    def predict_level(self, counters: CounterSet, preset: float) -> int:
        """The V/f level for the next epoch: a one-row
        :meth:`predict_levels`."""
        return self.predict_levels([counters], preset)[0]

    def predict_levels(self, counter_sets: list[CounterSet],
                       preset) -> list[int]:
        """Per-cluster prediction as one (n, features) forward pass.

        ``preset`` may be a scalar (broadcast) or per-row array — see
        :meth:`_input_matrix`.
        """
        if not counter_sets:
            raise PolicyError("no counters given")
        if np.any(np.asarray(preset) < 0):
            raise PolicyError("preset cannot be negative")
        rows = self._input_matrix(counter_sets, preset)
        return [int(v) for v in self.model.predict_class(rows)]
