"""Lumped RC thermal model with leakage feedback (extension).

The paper treats temperature implicitly (leakage constants at a fixed
operating temperature).  This extension closes the loop the way
McPAT/HotSpot co-simulations do, at the coarsest useful granularity:
one thermal RC node per cluster plus one for the package.

* Temperature integrates ``C dT/dt = P - (T - T_amb) / R``.
* Leakage grows exponentially with temperature:
  ``P_leak(T) = P_leak(T0) * exp(k * (T - T0))``.

The feedback means sustained high-V/f operation heats the die, which
inflates leakage, which heats the die further — the runaway DVFS is
ultimately protecting against.  The `bench_ablation_thermal` benchmark
quantifies the peak-temperature reduction SSMDVFS buys on top of its
EDP savings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from .energy import EnergyAccount

#: Leakage-temperature sensitivity (1/K); ~2x per 25-30 K.
LEAK_TEMP_COEFF = 0.025
#: Temperature at which leakage equals its modelled value (deg C).
REFERENCE_C = 60.0
#: Heat capacity of a cluster-scale silicon+spreader node (J/K): with
#: the default resistance the time constant is a few milliseconds, so
#: µs-scale power changes integrate smoothly.
CAPACITANCE_J_PER_C = 2.0e-3
#: Temperature the node is clamped at (deg C), a guard against
#: thermal-runaway overflow.
MAX_TEMPERATURE_C = 150.0


@dataclass(frozen=True)
class ThermalConfig:
    """RC constants of the per-cluster thermal node.

    Defaults give a cluster-scale silicon+spreader node: a thermal time
    constant of a few milliseconds, so µs-scale power changes integrate
    smoothly (temperature is the *slow* state DVFS acts through).
    """

    ambient_c: float = 45.0
    resistance_c_per_w: float = 4.0

    def __post_init__(self) -> None:
        if self.resistance_c_per_w <= 0:
            raise ConfigError("thermal resistance must be positive")
        if self.ambient_c >= MAX_TEMPERATURE_C:
            raise ConfigError("ambient must be below the max temperature")

    @property
    def time_constant_s(self) -> float:
        """RC time constant of the node."""
        return self.resistance_c_per_w * CAPACITANCE_J_PER_C


class ThermalNode:
    """One first-order RC thermal node with exact exponential stepping."""

    def __init__(self, config: ThermalConfig | None = None) -> None:
        self.config = config or ThermalConfig()
        self.temperature_c = self.config.ambient_c
        self.peak_c = self.temperature_c

    def steady_state_c(self, power_w: float) -> float:
        """Temperature the node settles at under constant ``power_w``."""
        if power_w < 0:
            raise ConfigError("power cannot be negative")
        return self.config.ambient_c + power_w * self.config.resistance_c_per_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance ``dt_s`` seconds under constant power; returns T.

        Uses the exact solution of the linear RC ODE, so arbitrarily
        long epochs step stably.
        """
        if dt_s <= 0:
            raise ConfigError("time step must be positive")
        target = self.steady_state_c(power_w)
        alpha = math.exp(-dt_s / self.config.time_constant_s)
        self.temperature_c = target + (self.temperature_c - target) * alpha
        self.temperature_c = min(self.temperature_c, MAX_TEMPERATURE_C)
        self.peak_c = max(self.peak_c, self.temperature_c)
        return self.temperature_c

    def leakage_multiplier(self) -> float:
        """Factor to apply to reference-temperature leakage power."""
        delta = self.temperature_c - REFERENCE_C
        return math.exp(LEAK_TEMP_COEFF * delta)


class ThermalTracker:
    """Per-cluster thermal nodes driven by epoch power, with feedback.

    Usage: after each simulator epoch, feed the per-cluster powers; the
    tracker returns the leakage-adjusted *additional* energy and keeps
    temperature/peak statistics.
    """

    def __init__(self, num_clusters: int,
                 config: ThermalConfig | None = None) -> None:
        if num_clusters <= 0:
            raise ConfigError("num_clusters must be positive")
        self.config = config or ThermalConfig()
        self.nodes = [ThermalNode(self.config) for _ in range(num_clusters)]

    def step_epoch(self, cluster_powers_w: list[float],
                   static_powers_w: list[float], dt_s: float) -> float:
        """Advance all nodes one epoch; returns extra leakage energy (J).

        ``cluster_powers_w`` drives heating; ``static_powers_w`` is the
        reference-temperature leakage share that the temperature
        multiplier applies to.
        """
        if len(cluster_powers_w) != len(self.nodes):
            raise ConfigError("power list length mismatch")
        if len(static_powers_w) != len(self.nodes):
            raise ConfigError("static power list length mismatch")
        extra_energy = 0.0
        for node, power, static in zip(self.nodes, cluster_powers_w,
                                       static_powers_w):
            if power < 0 or static < 0:
                raise ConfigError("powers cannot be negative")
            node.step(power, dt_s)
            extra_energy += static * (node.leakage_multiplier() - 1.0) * dt_s
        return extra_energy

    @property
    def peak_temperature_c(self) -> float:
        """Hottest temperature any cluster has reached."""
        return max(node.peak_c for node in self.nodes)


def run_with_thermal(simulator, policy, config: ThermalConfig | None = None):
    """Run a policy with the thermal feedback loop engaged.

    Returns ``(run_result, tracker)`` where the run's energy account
    includes the temperature-driven extra leakage.  The policy sees the
    unmodified counters (temperature sensors are out of scope for the
    paper's feature set), so temperature never steers the run: the
    tracker replays the finished run's records.  Every record, the
    truncated final one included, heats the die for a full
    ``simulator.epoch_s``.
    """
    result = simulator.run(policy)
    tracker = ThermalTracker(len(simulator.clusters), config)
    account = EnergyAccount()
    for record in result.records:
        powers = [c["power_per_core"] for c in record.cluster_counters]
        statics = [c["power_static"] for c in record.cluster_counters]
        extra = tracker.step_epoch(powers, statics, simulator.epoch_s)
        account.add(record.energy_j + extra, record.duration_s)
    result.account = account
    return result, tracker
