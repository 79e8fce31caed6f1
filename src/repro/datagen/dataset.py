"""Dataset container for the supervised DVFS task.

Each breakpoint contributes one raw 47-counter record (from its feature
collection window) and six labelled samples — one per operating point —
carrying the measured performance loss and the scaling-window
instruction count (§III-C):

* **Decision-maker** sample — two labelings are supported:

  - ``minimal`` (default): ``x = [features..., preset]`` for presets
    drawn from a grid, ``y = minimum level whose measured loss stays
    within the preset``.  This operationalises the paper's stated
    classification criterion ("select the minimum frequency that
    satisfies a given performance loss preset", §II) and stays
    well-defined on frequency-insensitive phases where every level
    satisfies any preset.
  - ``applied``: ``x = [features..., measured_loss]``, ``y = level``
    applied in the scaling window — the literal §III-C description.
    On insensitive phases this gives identical inputs with six
    different labels, capping achievable accuracy.
* **Calibrator** sample: ``x = [features..., level]``,
  ``y = throughput ratio`` — scaling-window instructions divided by the
  feature window's instruction count.  Predicting the *ratio* rather
  than the absolute count makes the target scale-free across kernels;
  the runtime multiplies the predicted ratio by the instruction count
  it just measured to recover the absolute prediction the paper's
  calibration step compares against.

  The paper additionally feeds the Decision-maker's loss input to the
  Calibrator (§III-C), trained with the *measured* loss but run with
  the *preset*.  That train/serve mismatch is out-of-distribution
  whenever a phase's real loss sits far from the preset (every
  memory-bound phase under a 10-20 % preset) and corrupts the
  prediction, so this reproduction drops the redundant input —
  (features, level) already determine the throughput ratio.

Splits are grouped **by breakpoint**: the six samples of a breakpoint
share the same feature vector, so splitting sample-wise would leak test
features into training.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..gpu.counters import COUNTER_NAMES, CounterSet
from ..nn.compress import SplitData
from ..parallel import CampaignStats, parallel_map
from ..store import atomic_write_bytes
from .features import FeatureExtractor, FeatureScaler
from .protocol import BreakpointSamples

#: Index of the raw ``inst_total`` counter in the canonical vector order.
_INST_TOTAL_INDEX = COUNTER_NAMES.index("inst_total")

#: Preset grid used to synthesise decision samples under the
#: ``minimal`` labeling (fractions of allowed performance loss).
DEFAULT_PRESET_GRID = (0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30)


def _assemble_chunk(chunk: list[BreakpointSamples]) -> "DVFSDataset":
    """Process-pool unit of dataset assembly (module-level: picklable)."""
    return DVFSDataset.from_breakpoints(chunk)


@dataclass
class PreparedData:
    """Standardised train/test splits plus the deployment artefacts."""

    decision: SplitData
    calibrator: SplitData
    decision_scaler: FeatureScaler
    calibrator_scaler: FeatureScaler
    feature_names: tuple[str, ...]
    num_levels: int


class DVFSDataset:
    """Flat arrays over all breakpoints of a generation run."""

    def __init__(self, counters: np.ndarray, kernel_names: list[str],
                 sample_breakpoint: np.ndarray, sample_level: np.ndarray,
                 sample_loss: np.ndarray,
                 sample_instructions: np.ndarray,
                 record_group: np.ndarray | None = None) -> None:
        counters = np.asarray(counters, dtype=np.float64)
        if counters.ndim != 2 or counters.shape[1] != len(COUNTER_NAMES):
            raise DatasetError(
                f"counters must be (n, {len(COUNTER_NAMES)}), got {counters.shape}"
            )
        if counters.shape[0] != len(kernel_names):
            raise DatasetError("kernel-name count mismatch")
        n_samples = sample_breakpoint.shape[0]
        for name, array in (("level", sample_level), ("loss", sample_loss),
                            ("instructions", sample_instructions)):
            if array.shape[0] != n_samples:
                raise DatasetError(f"sample_{name} length mismatch")
        if n_samples == 0:
            raise DatasetError("dataset has no samples")
        if sample_breakpoint.max() >= counters.shape[0]:
            raise DatasetError("sample references missing breakpoint")
        self.counters = counters
        self.kernel_names = list(kernel_names)
        self.sample_breakpoint = np.asarray(sample_breakpoint, dtype=np.int64)
        self.sample_level = np.asarray(sample_level, dtype=np.int64)
        self.sample_loss = np.asarray(sample_loss, dtype=np.float64)
        self.sample_instructions = np.asarray(sample_instructions,
                                              dtype=np.float64)
        # Feature-level augmentation makes several counter records share
        # one *physical* breakpoint (and its labels); splits must group
        # by physical breakpoint or test labels leak into training.
        if record_group is None:
            record_group = np.arange(counters.shape[0])
        record_group = np.asarray(record_group, dtype=np.int64)
        if record_group.shape[0] != counters.shape[0]:
            raise DatasetError("record_group length mismatch")
        self.record_group = record_group

    # ------------------------------------------------------------------
    @classmethod
    def from_breakpoints(cls, breakpoints: list[BreakpointSamples]
                         ) -> "DVFSDataset":
        """Flatten protocol output into a dataset.

        Assembly is a two-pass stream: a counting pass sizes the final
        arrays, then rows are written straight into the preallocated
        buffers.  Large generation campaigns used to build Python lists
        of per-row vectors and ``np.stack`` them at the end — peak
        memory of roughly twice the dataset plus one object header per
        row; streaming keeps exactly one copy.  Values and dtypes are
        identical to the list-based assembly (float64 counter rows,
        int64 indices), so cached artefacts and merge offsets are
        unaffected.
        """
        if not breakpoints:
            raise DatasetError("no breakpoints supplied")
        num_rows = 0
        num_samples = 0
        for bp in breakpoints:
            variants = len(bp.feature_variants) or 1
            num_rows += variants
            num_samples += variants * len(bp.levels)
        counters = np.empty((num_rows, len(COUNTER_NAMES)), dtype=np.float64)
        groups = np.empty(num_rows, dtype=np.int64)
        kernel_names: list[str] = []
        sample_bp = np.empty(num_samples, dtype=np.int64)
        levels = np.empty(num_samples, dtype=np.int64)
        losses = np.empty(num_samples, dtype=np.float64)
        instrs = np.empty(num_samples, dtype=np.float64)
        row = sample = 0
        for group, bp in enumerate(breakpoints):
            bp_variants = bp.feature_variants or [
                (max(bp.levels), bp.feature_counters)]
            n = len(bp.levels)
            for _, counter_set in bp_variants:
                counters[row] = counter_set.as_vector()
                kernel_names.append(bp.kernel_name)
                groups[row] = group
                sample_bp[sample:sample + n] = row
                levels[sample:sample + n] = bp.levels
                losses[sample:sample + n] = bp.losses
                instrs[sample:sample + n] = bp.window_instructions
                sample += n
                row += 1
        return cls(counters, kernel_names, sample_bp, levels, losses, instrs,
                   record_group=groups)

    @classmethod
    def merge(cls, datasets: list["DVFSDataset"]) -> "DVFSDataset":
        """Concatenate per-chunk datasets into one.

        Record indices and split groups are offset per chunk, so merging
        the per-kernel datasets of a parallel campaign reproduces the
        arrays :meth:`from_breakpoints` builds over the flattened
        breakpoint list bit for bit.
        """
        if not datasets:
            raise DatasetError("no datasets to merge")
        if len(datasets) == 1:
            return datasets[0]
        counters, names = [], []
        sample_bp, levels, losses, instrs, groups = [], [], [], [], []
        row_offset = group_offset = 0
        for dataset in datasets:
            counters.append(dataset.counters)
            names.extend(dataset.kernel_names)
            sample_bp.append(dataset.sample_breakpoint + row_offset)
            levels.append(dataset.sample_level)
            losses.append(dataset.sample_loss)
            instrs.append(dataset.sample_instructions)
            groups.append(dataset.record_group + group_offset)
            row_offset += dataset.counters.shape[0]
            group_offset += int(dataset.record_group.max()) + 1
        return cls(np.concatenate(counters), names,
                   np.concatenate(sample_bp), np.concatenate(levels),
                   np.concatenate(losses), np.concatenate(instrs),
                   record_group=np.concatenate(groups))

    @classmethod
    def from_breakpoint_chunks(cls, chunks: list[list[BreakpointSamples]],
                               workers: int | None = None,
                               stats: CampaignStats | None = None
                               ) -> "DVFSDataset":
        """Assemble per-kernel breakpoint chunks into one dataset.

        Each non-empty chunk is flattened independently (fanned out over
        ``workers``) and the partial datasets merged, which equals
        :meth:`from_breakpoints` over the concatenated chunks.
        """
        chunks = [list(chunk) for chunk in chunks if chunk]
        if not chunks:
            raise DatasetError("no breakpoints supplied")
        datasets = parallel_map(_assemble_chunk, chunks, workers=workers,
                                stats=stats, stage="assemble")
        return cls.merge(datasets)

    @property
    def num_breakpoints(self) -> int:
        """Number of feature records (one per breakpoint x window level)."""
        return self.counters.shape[0]

    @property
    def num_groups(self) -> int:
        """Number of physical breakpoints (split groups)."""
        return int(np.unique(self.record_group).size)

    @property
    def num_samples(self) -> int:
        """Number of labelled (level, loss) samples."""
        return self.sample_breakpoint.shape[0]

    @property
    def num_levels(self) -> int:
        """Number of distinct V/f levels present."""
        return int(self.sample_level.max()) + 1

    def counter_set(self, breakpoint_index: int) -> CounterSet:
        """Rebuild the CounterSet of one breakpoint."""
        if not 0 <= breakpoint_index < self.num_breakpoints:
            raise DatasetError("breakpoint index out of range")
        row = self.counters[breakpoint_index]
        return CounterSet.from_vector(np.array(row, dtype=np.float64))

    def throughput_ratios(self) -> np.ndarray:
        """Calibrator targets: next-window over feature-window counts."""
        current = self.counters[self.sample_breakpoint, _INST_TOTAL_INDEX]
        return self.sample_instructions / np.maximum(current, 1.0)

    def oracle_level(self, breakpoint_index: int, preset: float) -> int:
        """Slowest level whose measured loss is within ``preset``."""
        mask = self.sample_breakpoint == breakpoint_index
        levels = self.sample_level[mask]
        losses = self.sample_loss[mask]
        if levels.size == 0:
            raise DatasetError("breakpoint has no samples")
        ok = losses <= preset
        if not ok.any():
            return int(levels.max())
        return int(levels[ok].min())

    # ------------------------------------------------------------------
    def _breakpoint_feature_matrix(self, extractor: FeatureExtractor
                                   ) -> np.ndarray:
        sets = [self.counter_set(i) for i in range(self.num_breakpoints)]
        return extractor.extract_matrix(sets)

    def minimal_level_for_record(self, record_index: int,
                                 preset: float) -> int:
        """Min level whose loss fits ``preset`` among a record's samples."""
        mask = self.sample_breakpoint == record_index
        levels = self.sample_level[mask]
        losses = self.sample_loss[mask]
        if levels.size == 0:
            raise DatasetError("record has no samples")
        ok = losses <= preset
        if not ok.any():
            return int(levels.max())
        return int(levels[ok].min())

    def _decision_arrays(self, feats_per_record: np.ndarray, labeling: str,
                         preset_grid: tuple[float, ...]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decision inputs/labels plus each row's split group."""
        if labeling == "applied":
            feats = feats_per_record[self.sample_breakpoint]
            x = np.column_stack([feats, self.sample_loss])
            y = self.sample_level
            group = self.record_group[self.sample_breakpoint]
            return x, y, group
        if labeling != "minimal":
            raise DatasetError(f"unknown labeling {labeling!r}")
        if not preset_grid:
            raise DatasetError("minimal labeling needs a preset grid")
        # One row per (record, preset), record-major.  A stable sort
        # groups each record's samples into one contiguous run, so every
        # label is a segment reduction: the lowest level whose loss fits
        # the preset, else the record's highest level, as in
        # :meth:`minimal_level_for_record`.
        counts = np.bincount(self.sample_breakpoint,
                             minlength=self.num_breakpoints)
        if not counts.all():
            raise DatasetError("record has no samples")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        order = np.argsort(self.sample_breakpoint, kind="stable")
        levels = self.sample_level[order]
        presets = np.asarray(preset_grid, dtype=np.float64)
        none_fit = np.iinfo(np.int64).max
        fitting = np.where(self.sample_loss[order] <= presets[:, None],
                           levels, none_fit)
        lowest = np.minimum.reduceat(fitting, starts, axis=1)
        highest = np.maximum.reduceat(levels, starts)
        labels = np.where(lowest == none_fit, highest, lowest).T.ravel()
        x = np.column_stack([
            np.repeat(feats_per_record, presets.size, axis=0),
            np.tile(presets, self.num_breakpoints)])
        return x, labels, np.repeat(self.record_group, presets.size)

    def prepare(self, feature_names: tuple[str, ...], issue_width: float,
                test_fraction: float = 0.25, seed: int = 0,
                labeling: str = "minimal",
                preset_grid: tuple[float, ...] = DEFAULT_PRESET_GRID
                ) -> PreparedData:
        """Build standardised decision/calibrator splits.

        Splits are grouped by physical breakpoint.  Scalers are fitted
        on the training rows only and returned for runtime deployment.
        """
        if not 0.0 < test_fraction < 1.0:
            raise DatasetError("test_fraction must be in (0, 1)")
        extractor = FeatureExtractor(tuple(feature_names), issue_width)
        bp_features = self._breakpoint_feature_matrix(extractor)

        rng = np.random.default_rng(seed)
        groups = np.unique(self.record_group)
        order = rng.permutation(groups)
        n_test = max(1, int(groups.size * test_fraction))
        if n_test >= groups.size:
            raise DatasetError("not enough breakpoints for the split")
        test_groups = set(order[:n_test].tolist())

        decision_x, decision_y, decision_group = self._decision_arrays(
            bp_features, labeling, preset_grid)
        decision_in_test = np.array(
            [g in test_groups for g in decision_group])

        sample_group = self.record_group[self.sample_breakpoint]
        in_test = np.array([g in test_groups for g in sample_group])
        feats = bp_features[self.sample_breakpoint]
        calib_x = np.column_stack([feats,
                                   self.sample_level.astype(np.float64)])
        calib_y = self.throughput_ratios()

        decision_scaler = FeatureScaler().fit(decision_x[~decision_in_test])
        calib_scaler = FeatureScaler().fit(calib_x[~in_test])
        decision = SplitData(
            x_train=decision_scaler.transform(decision_x[~decision_in_test]),
            y_train=decision_y[~decision_in_test],
            x_test=decision_scaler.transform(decision_x[decision_in_test]),
            y_test=decision_y[decision_in_test],
        )
        calibrator = SplitData(
            x_train=calib_scaler.transform(calib_x[~in_test]),
            y_train=calib_y[~in_test],
            x_test=calib_scaler.transform(calib_x[in_test]),
            y_test=calib_y[in_test],
        )
        return PreparedData(
            decision=decision,
            calibrator=calibrator,
            decision_scaler=decision_scaler,
            calibrator_scaler=calib_scaler,
            feature_names=tuple(feature_names),
            num_levels=self.num_levels,
        )

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist to ``.npz`` (datasets are expensive to regenerate).

        The write is atomic (temp + fsync + rename): a kill mid-save
        leaves either the previous dataset or the new one on disk,
        never a truncated archive the cache layer would have to count
        as corrupt and regenerate.
        """
        path = Path(path)
        if path.suffix != ".npz":  # np.savez's historical behaviour
            path = path.with_name(path.name + ".npz")
        buffer = io.BytesIO()
        np.savez(
            buffer,
            counters=self.counters,
            kernel_names=np.array(self.kernel_names),
            sample_breakpoint=self.sample_breakpoint,
            sample_level=self.sample_level,
            sample_loss=self.sample_loss,
            sample_instructions=self.sample_instructions,
            record_group=self.record_group,
        )
        atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load(cls, path: str | Path) -> "DVFSDataset":
        """Load a dataset saved with :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"dataset file not found: {path}")
        with np.load(path, allow_pickle=False) as data:
            group = (data["record_group"] if "record_group" in data.files
                     else None)
            return cls(
                counters=data["counters"],
                kernel_names=[str(n) for n in data["kernel_names"]],
                sample_breakpoint=data["sample_breakpoint"],
                sample_level=data["sample_level"],
                sample_loss=data["sample_loss"],
                sample_instructions=data["sample_instructions"],
                record_group=group,
            )
