"""Utilization-threshold ("ondemand"-style) governor baseline.

The classic OS DVFS governor adapted to GPU clusters: raise the
operating point when utilization is high, drop it when utilization is
low, with hysteresis.  It knows nothing about memory-boundedness — the
structural blindness that motivates counter-based policies like
PCSTALL and SSMDVFS — so it serves as the naive-dynamic reference.
"""

from __future__ import annotations

from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from ..core.policy import BasePolicy

#: Utilization at or above which a cluster steps one level up.
UP_THRESHOLD = 0.6
#: Utilization at or below which a cluster steps one level down.
DOWN_THRESHOLD = 0.3

class UtilizationGovernor(BasePolicy):
    """Step levels up/down on issue-slot utilization thresholds."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "governor"

    def reset(self, simulator: GPUSimulator) -> None:
        """Start every cluster at the default operating point."""
        super().reset(simulator)
        simulator.set_all_levels(simulator.arch.vf_table.default_level)

    @staticmethod
    def utilization(counters: CounterSet) -> float:
        """Issued share of the epoch's issue slots."""
        slots = counters["issue_slots"]
        if slots <= 0:
            return 0.0
        return min(1.0, counters["inst_total"] / slots)

    def decide(self, record: EpochRecord) -> list[int]:
        """Step each cluster by utilization thresholds."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        table = self.simulator.arch.vf_table
        levels = []
        for current, counters in zip(record.levels,
                                     record.cluster_counters):
            utilization = self.utilization(counters)
            if utilization >= UP_THRESHOLD:
                levels.append(table.clamp(current + 1))
            elif utilization <= DOWN_THRESHOLD:
                levels.append(table.clamp(current - 1))
            else:
                levels.append(current)
        return levels
