"""Best-static-level oracle baseline.

Exhaustively runs a kernel at every operating point and reports the
level with the best objective — the strongest *static* policy possible,
and therefore the reference that quantifies what *dynamic* (per-epoch)
DVFS adds on top of perfect offline tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PolicyError
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import GPUSimulator
from ..core.policy import StaticPolicy


@dataclass(frozen=True)
class StaticSweepPoint:
    """Outcome of one pinned-level run."""

    level: int
    time_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        """Energy-delay product."""
        return self.energy_j * self.time_s


@dataclass
class StaticOracleResult:
    """Full static sweep plus the chosen level."""

    points: list[StaticSweepPoint]
    chosen: StaticSweepPoint
    preset: float | None

    @property
    def best_level(self) -> int:
        """The selected operating point."""
        return self.chosen.level


def static_sweep(kernel: KernelProfile, arch: GPUArchConfig,
                 seed: int = 0) -> list[StaticSweepPoint]:
    """Run ``kernel`` pinned at every operating point."""
    points = []
    for level in range(arch.vf_table.num_levels):
        simulator = GPUSimulator(arch, kernel, seed=seed)
        result = simulator.run(StaticPolicy(level), keep_records=False)
        points.append(StaticSweepPoint(level=level, time_s=result.time_s,
                                       energy_j=result.energy_j))
    return points


def best_static(kernel: KernelProfile, arch: GPUArchConfig,
                preset: float | None = None,
                seed: int = 0) -> StaticOracleResult:
    """Best static level by minimum EDP, optionally under a loss preset.

    With ``preset`` given, only levels whose total slowdown versus the
    default level stays within the preset are eligible (matching the
    adapted objective every policy in the paper optimises).
    """
    points = static_sweep(kernel, arch, seed=seed)
    default = points[arch.vf_table.default_level]
    eligible = points
    if preset is not None:
        if preset < 0:
            raise PolicyError("preset cannot be negative")
        eligible = [p for p in points
                    if (p.time_s - default.time_s) / default.time_s
                    <= preset + 1e-12]
        if not eligible:
            eligible = [default]
    chosen = min(eligible, key=lambda p: p.edp)
    return StaticOracleResult(points=points, chosen=chosen, preset=preset)
