"""Operating-point residency analysis.

How long did each cluster spend at each V/f level during a run?  The
residency histogram is the most direct window into what a DVFS policy
actually *did* — e.g. a memory-bound kernel under a good policy shows
near-total residency at the lowest level, while F-LEMMA's exploration
smears residency across the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..gpu.simulator import EpochRecord


@dataclass(frozen=True)
class ResidencyProfile:
    """Fraction of cluster-epochs spent at each level."""

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        total = sum(self.fractions)
        if self.fractions and abs(total - 1.0) > 1e-6:
            raise SimulationError(f"residency sums to {total}, expected 1")

    @property
    def num_levels(self) -> int:
        """Number of operating points covered."""
        return len(self.fractions)

    @property
    def mean_level(self) -> float:
        """Residency-weighted mean level."""
        return float(sum(level * fraction
                         for level, fraction in enumerate(self.fractions)))

    def entropy_bits(self) -> float:
        """Shannon entropy of the residency distribution.

        0 bits = pinned at one level; log2(6) ~ 2.58 bits = uniform
        smear (the exploration signature).
        """
        probabilities = np.array([f for f in self.fractions if f > 0])
        if probabilities.size == 0:
            return 0.0
        return float(-(probabilities * np.log2(probabilities)).sum())

    def render(self) -> str:
        """One-line bar rendering."""
        cells = " ".join(f"L{level}:{fraction:5.1%}"
                         for level, fraction in enumerate(self.fractions))
        return f"[{cells}] mean={self.mean_level:.2f}"


def residency_from_records(records: list[EpochRecord],
                           num_levels: int) -> ResidencyProfile:
    """Aggregate a run's epoch records into a residency profile."""
    if not records:
        raise SimulationError("no records to analyse")
    if num_levels <= 0:
        raise SimulationError("num_levels must be positive")
    counts = np.zeros(num_levels, dtype=np.float64)
    for record in records:
        for level in record.levels:
            if not 0 <= level < num_levels:
                raise SimulationError(f"level {level} out of range")
            counts[level] += 1
    counts /= counts.sum()
    return ResidencyProfile(fractions=tuple(counts.tolist()))
