"""Adapted PCSTALL baseline (Bharadwaj et al., ASPLOS 2022; paper §V-B).

PCSTALL is an analytical fine-grain DVFS controller built on the linear
additivity of frequency-sensitivity metrics: an epoch's wall-clock time
splits into a part that scales with the core clock (issue/execute
cycles) and a part pinned to the memory clock domain (stall time on
memory), and iterative GPGPU kernels let the split measured in recent
epochs predict the next one.

The adapted objective (matching SSMDVFS): from performance counters,
estimate each operating point's sustained slowdown versus the default
point, and pick the slowest level whose predicted loss stays within the
preset.

Its weakness — the reason a learned model beats it — is exactly what it
is: a two-term linear model.  Bandwidth saturation, store-buffer
effects, and divergence all bend the true time-vs-frequency curve away
from linear additivity, and those errors land directly on the level
decision.
"""

from __future__ import annotations

from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from ..core.policy import BasePolicy

#: Weight of the previous estimate in each cluster's smoothed stall
#: share (the measured epoch gets the rest).
HISTORY_WEIGHT = 0.5

class PCSTALLPolicy(BasePolicy):
    """Frequency-sensitivity analytical DVFS controller."""

    def __init__(self, preset: float) -> None:
        super().__init__()
        if preset < 0:
            raise PolicyError("preset cannot be negative")
        self.preset = float(preset)
        self.name = f"pcstall-p{int(round(preset * 100))}"
        self._stall_history: list[float | None] = []

    def reset(self, simulator: GPUSimulator) -> None:
        """Clear the stall history and pin clusters at the default."""
        super().reset(simulator)
        self._stall_history = [None] * simulator.arch.num_clusters
        simulator.set_all_levels(simulator.arch.vf_table.default_level)

    # ------------------------------------------------------------------
    def _memory_time_fraction(self, counters: CounterSet) -> float:
        """Fraction of the epoch spent waiting on the memory domain.

        Estimated from the memory-hazard share of issue slots — the
        counter-level quantity PCSTALL's sensitivity metric is built on.
        """
        slots = counters["issue_slots"]
        if slots <= 0:
            return 0.0
        fraction = counters["stall_mem_hazard"] / slots
        return min(1.0, max(0.0, fraction))

    def _predict_loss(self, stall_fraction: float, current_hz: float,
                      target_hz: float, default_hz: float) -> float:
        """Two-term linear model: T(f) = busy * f_cur/f + memwait."""
        busy = 1.0 - stall_fraction
        time_at = busy * current_hz / target_hz + stall_fraction
        time_default = busy * current_hz / default_hz + stall_fraction
        return time_at / time_default - 1.0

    def _decide_one(self, counters: CounterSet, cluster_index: int,
                    current_level: int) -> int:
        table = self.simulator.arch.vf_table
        measured = self._memory_time_fraction(counters)
        previous = self._stall_history[cluster_index]
        if previous is None:
            blended = measured
        else:
            # Iterative-pattern smoothing: kernels repeat, so the recent
            # history is a predictor for the next epoch.
            blended = (HISTORY_WEIGHT * previous
                       + (1.0 - HISTORY_WEIGHT) * measured)
        self._stall_history[cluster_index] = blended

        current_hz = table[current_level].frequency_hz
        default_hz = table[table.default_level].frequency_hz
        for level in range(table.num_levels):
            loss = self._predict_loss(blended, current_hz,
                                      table[level].frequency_hz, default_hz)
            if loss <= self.preset:
                return level
        return table.default_level

    def decide(self, record: EpochRecord):
        """Pick each cluster's minimal level under the predicted loss."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        levels = []
        for index, counters in enumerate(record.cluster_counters):
            if counters["inst_total"] <= 0:
                levels.append(self.simulator.arch.vf_table.min_level)
            else:
                levels.append(self._decide_one(
                    counters, index, record.levels[index]))
        return levels
