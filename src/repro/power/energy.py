"""Energy accounting and EDP metrics.

The paper's primary metric is the Energy-Delay Product (EDP) of a
program run, normalised to the run at the default operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError


@dataclass
class EnergyAccount:
    """Accumulates energy and elapsed time over a simulated run."""

    energy_j: float = 0.0
    time_s: float = 0.0

    def add(self, energy_j: float, time_s: float) -> None:
        """Add one epoch's energy and duration."""
        if energy_j < 0 or time_s < 0:
            raise SimulationError("energy and time increments must be >= 0")
        self.energy_j += energy_j
        self.time_s += time_s

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy_j * self.time_s

    def normalized_edp(self, baseline: "EnergyAccount") -> float:
        """EDP relative to a baseline run (1.0 = identical)."""
        if baseline.edp <= 0:
            raise SimulationError("baseline EDP must be positive")
        return self.edp / baseline.edp

    def normalized_latency(self, baseline: "EnergyAccount") -> float:
        """Delay relative to a baseline run (1.0 = identical)."""
        if baseline.time_s <= 0:
            raise SimulationError("baseline time must be positive")
        return self.time_s / baseline.time_s
