"""Dataset statistics and diagnostics.

Summaries the offline pipeline (and its operator) actually looks at:
per-kernel loss spreads, the oracle level distribution per preset, and
counter/label correlations — the "is this dataset learnable?" report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError
from ..gpu.counters import COUNTER_NAMES
from .dataset import DEFAULT_PRESET_GRID, DVFSDataset


@dataclass(frozen=True)
class KernelLossStats:
    """Loss-label statistics for one kernel."""

    kernel: str
    num_records: int
    min_level_loss_mean: float
    min_level_loss_max: float
    oracle_levels_at_10pct: dict[int, int]

    @property
    def frequency_sensitive(self) -> bool:
        """True when the slowest point costs real time on this kernel."""
        return self.min_level_loss_mean > 0.05


@dataclass
class DatasetReport:
    """Full dataset diagnostic."""

    num_groups: int
    num_records: int
    num_samples: int
    loss_min: float
    loss_max: float
    per_kernel: list[KernelLossStats]
    label_entropy_bits: float
    counter_label_correlation: dict[str, float]

    def render(self) -> str:
        """Human-readable report."""
        from ..evaluation.reporting import format_table
        rows = [[s.kernel, s.num_records,
                 round(s.min_level_loss_mean, 3),
                 round(s.min_level_loss_max, 3),
                 "yes" if s.frequency_sensitive else "no"]
                for s in self.per_kernel]
        table = format_table(
            ["Kernel", "records", "mean loss@min-V/f", "max loss@min-V/f",
             "freq-sensitive"],
            rows, title="Dataset diagnostics")
        top = sorted(self.counter_label_correlation.items(),
                     key=lambda kv: -abs(kv[1]))[:8]
        corr = ", ".join(f"{name}={value:+.2f}" for name, value in top)
        return (f"{table}\n"
                f"groups={self.num_groups} records={self.num_records} "
                f"samples={self.num_samples} "
                f"loss range=[{self.loss_min:.3f}, {self.loss_max:.3f}] "
                f"label entropy={self.label_entropy_bits:.2f} bits\n"
                f"top |corr(counter, min-level loss)|: {corr}")


def _label_entropy_bits(labels: np.ndarray) -> float:
    values, counts = np.unique(labels, return_counts=True)
    probabilities = counts / counts.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


def analyze_dataset(dataset: DVFSDataset,
                    preset: float = 0.10) -> DatasetReport:
    """Compute the full diagnostic report for a dataset."""
    if not 0.0 <= preset <= 1.0:
        raise DatasetError("preset must be in [0, 1]")
    min_level_losses: dict[str, list[float]] = {}
    oracle_hist: dict[str, Counter] = {}
    record_counts = Counter()
    for record in range(dataset.num_breakpoints):
        kernel = dataset.kernel_names[record]
        record_counts[kernel] += 1
        mask = dataset.sample_breakpoint == record
        levels = dataset.sample_level[mask]
        losses = dataset.sample_loss[mask]
        if levels.size == 0:
            continue
        min_level_losses.setdefault(kernel, []).append(
            float(losses[np.argmin(levels)]))
        oracle = dataset.minimal_level_for_record(record, preset)
        oracle_hist.setdefault(kernel, Counter())[oracle] += 1

    per_kernel = []
    for kernel in sorted(record_counts):
        losses = min_level_losses.get(kernel, [0.0])
        per_kernel.append(KernelLossStats(
            kernel=kernel,
            num_records=record_counts[kernel],
            min_level_loss_mean=float(np.mean(losses)),
            min_level_loss_max=float(np.max(losses)),
            oracle_levels_at_10pct=oracle_hist.get(kernel, {}),
        ))

    # Oracle labels over the default preset grid -> entropy (how much
    # there is to learn) and per-counter correlation with the min-level
    # loss (which counters carry the signal).
    oracle_labels = np.array([
        dataset.minimal_level_for_record(record, p)
        for record in range(dataset.num_breakpoints)
        for p in DEFAULT_PRESET_GRID
    ])
    min_loss_per_record = np.zeros(dataset.num_breakpoints)
    for record in range(dataset.num_breakpoints):
        mask = dataset.sample_breakpoint == record
        levels = dataset.sample_level[mask]
        min_loss_per_record[record] = dataset.sample_loss[mask][
            np.argmin(levels)]
    correlations = {}
    for index, name in enumerate(COUNTER_NAMES):
        column = dataset.counters[:, index]
        if np.std(column) < 1e-12 or np.std(min_loss_per_record) < 1e-12:
            correlations[name] = 0.0
        else:
            correlations[name] = float(np.corrcoef(
                column, min_loss_per_record)[0, 1])

    return DatasetReport(
        num_groups=dataset.num_groups,
        num_records=dataset.num_breakpoints,
        num_samples=dataset.num_samples,
        loss_min=float(dataset.sample_loss.min()),
        loss_max=float(dataset.sample_loss.max()),
        per_kernel=per_kernel,
        label_entropy_bits=_label_entropy_bits(oracle_labels),
        counter_label_correlation=correlations,
    )
