"""Feature extraction from raw performance counters.

Raw counters are per-epoch magnitudes whose scale depends on how long
the epoch ran in cycles.  For learning we normalise count-like counters
to *per-kilocycle* rates, leaving rates/fractions, latencies and power
untouched — the same normalisation a hardware implementation would do
with a shift, since epochs have a fixed cycle budget per frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DatasetError
from ..gpu.counters import COUNTER_INDEX, COUNTER_SCHEMA, CounterSet

#: Counters that are raw counts (normalised per kilocycle).
_COUNT_COUNTERS = frozenset({
    "inst_total", "inst_fp32", "inst_fp64", "inst_int", "inst_sfu",
    "inst_load", "inst_store", "inst_shared", "inst_branch", "inst_sync",
    "issue_slots", "stall_total", "stall_mem_hazard",
    "stall_mem_hazard_load", "stall_mem_hazard_nonload", "stall_control",
    "stall_sync", "stall_data", "stall_idle", "l1_read_access",
    "l1_read_hit", "l1_read_miss", "l1_write_access", "l1_write_miss",
    "l2_access", "l2_miss",
})

#: Counters measured in bytes (normalised per kilocycle as well).
_BYTE_COUNTERS = frozenset({"dram_bytes"})

#: Counters that are already rates / ratios / physical quantities.
_PASSTHROUGH_COUNTERS = frozenset(COUNTER_SCHEMA) - _COUNT_COUNTERS - _BYTE_COUNTERS


_ISSUE_SLOT_INDEX = COUNTER_INDEX["issue_slots"]


@lru_cache(maxsize=64)
def _extraction_plan(names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(counter-vector column indices, per-kilocycle mask) for ``names``.

    Memoised per name tuple so repeated extraction — one call per epoch
    per cluster at runtime — gathers columns instead of looping names.
    """
    indices = np.array([COUNTER_INDEX[name] for name in names])
    normalise = np.array([name in _COUNT_COUNTERS or name in _BYTE_COUNTERS
                          for name in names])
    return indices, normalise


@dataclass(frozen=True)
class FeatureExtractor:
    """Maps a :class:`CounterSet` onto a normalised feature vector.

    Parameters
    ----------
    names:
        Counter names, in feature order.
    issue_width:
        The architecture's issue width (needed to recover cycles).
    """

    names: tuple[str, ...]
    issue_width: float = 4.0

    def __post_init__(self) -> None:
        if not self.names:
            raise DatasetError("feature extractor needs at least one counter")
        unknown = set(self.names) - set(COUNTER_SCHEMA)
        if unknown:
            raise DatasetError(f"unknown counters: {sorted(unknown)}")
        if self.issue_width <= 0:
            raise DatasetError("issue_width must be positive")

    @property
    def width(self) -> int:
        """Feature-vector width."""
        return len(self.names)

    def extract(self, counters: CounterSet) -> np.ndarray:
        """Normalised feature vector for one epoch's counters."""
        indices, normalise = _extraction_plan(self.names)
        raw = counters.as_vector()
        cycles = max(1.0, raw[_ISSUE_SLOT_INDEX] / self.issue_width)
        kilocycles = cycles / 1000.0
        values = raw[indices]
        values[normalise] /= kilocycles
        return values

    def extract_matrix(self, counter_sets: list[CounterSet],
                       out: np.ndarray | None = None) -> np.ndarray:
        """Feature vectors for many epochs as one (n, width) matrix.

        One gather + one masked column division over the stacked
        counter vectors; ``out`` (when given) receives the result in
        place so callers can reuse a preallocated buffer.
        """
        if not counter_sets:
            raise DatasetError("no counter sets to extract")
        indices, normalise = _extraction_plan(self.names)
        matrix = CounterSet.stack(counter_sets)
        cycles = np.maximum(1.0, matrix[:, _ISSUE_SLOT_INDEX]
                            / self.issue_width)
        kilocycles = cycles / 1000.0
        values = matrix[:, indices]
        values[:, normalise] /= kilocycles[:, None]
        if out is not None:
            out[:] = values
            return out
        return values


class FeatureScaler:
    """Z-score standardisation fitted on training data.

    The runtime controller applies the same transform to live counters,
    so the scaler is part of the deployed model artefact.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self.mean_ is not None

    def fit(self, matrix: np.ndarray) -> "FeatureScaler":
        """Fit means and stds column-wise; returns self."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise DatasetError("scaler needs a non-empty 2-D matrix")
        self.mean_ = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        # Constant columns carry no signal; avoid division blow-ups.
        self.std_ = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Standardise a matrix or a single row vector."""
        if not self.fitted:
            raise DatasetError("scaler used before fit")
        matrix = np.asarray(matrix, dtype=np.float64)
        single = matrix.ndim == 1
        if single:
            matrix = matrix[None, :]
        if matrix.shape[1] != self.mean_.shape[0]:
            raise DatasetError(
                f"scaler fitted on width {self.mean_.shape[0]}, "
                f"got {matrix.shape[1]}"
            )
        out = (matrix - self.mean_) / self.std_
        return out[0] if single else out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "FeatureScaler":
        """Rebuild a scaler from its ``mean`` and ``std`` arrays."""
        scaler = cls()
        try:
            scaler.mean_ = np.asarray(arrays["mean"], dtype=np.float64)
            scaler.std_ = np.asarray(arrays["std"], dtype=np.float64)
        except KeyError as exc:
            raise DatasetError(f"missing scaler array: {exc}") from exc
        return scaler
