"""McPAT-surrogate power model.

Per-cluster power is decomposed the way McPAT exposes it to DVFS
studies:

* **Dynamic** energy scales with activity and ``V^2``: a per-cycle
  baseline (clock tree, scheduling) plus an energy-per-instruction
  (EPI) table by instruction class.
* **Static** (leakage) power scales super-linearly with voltage and is
  always on.
* **Uncore** power (L2, NoC, memory controllers, DRAM) belongs to the
  GPU, not to any cluster, and is driven by traffic.

Constants are calibrated so a fully loaded 24-cluster GTX Titan X at
the default operating point lands inside its 250 W TDP envelope, with
the usual ~60/40 core/uncore split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..gpu.cluster import A_CYCLES, A_DRAM_BYTES, A_L2_ACCESS, _CLASS_SLICE
from ..gpu.phases import INSTRUCTION_CLASSES

#: Reference voltage for the EPI table (volts).
REFERENCE_VOLTAGE = 1.0


def _default_epi_table() -> dict[str, float]:
    """Energy per warp-instruction (joules) at the reference voltage."""
    return {
        "fp32": 1.4e-9,
        "fp64": 4.0e-9,
        "int": 1.1e-9,
        "sfu": 2.5e-9,
        "load": 2.0e-9,
        "store": 2.0e-9,
        "shared": 1.5e-9,
        "branch": 0.9e-9,
        "sync": 0.6e-9,
    }


@dataclass(frozen=True)
class PowerModelConfig:
    """Tunable constants of the power model.

    Attributes
    ----------
    epi_table:
        Energy per warp-instruction by class at the reference voltage.
    clock_energy_per_cycle_j:
        Per-cluster baseline dynamic energy burned every core cycle
        (clock distribution, schedulers) at the reference voltage.
    cluster_leakage_w:
        Per-cluster leakage at the reference voltage.
    leakage_voltage_exponent:
        Leakage scales as ``(V / Vref) ** exponent`` (super-linear).
    uncore_static_w:
        GPU-level always-on power (L2 arrays, MCs, fans, board).
    dram_energy_per_byte_j:
        DRAM access energy per byte transferred.
    l2_energy_per_access_j:
        L2 access energy per line access.
    """

    epi_table: dict[str, float] = field(default_factory=_default_epi_table)
    clock_energy_per_cycle_j: float = 1.2e-9
    cluster_leakage_w: float = 0.55
    leakage_voltage_exponent: float = 3.0
    uncore_static_w: float = 28.0
    dram_energy_per_byte_j: float = 60e-12
    l2_energy_per_access_j: float = 8e-9

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.epi_table.values()):
            raise ConfigError("EPI entries cannot be negative")
        for name in ("clock_energy_per_cycle_j", "cluster_leakage_w",
                     "uncore_static_w", "dram_energy_per_byte_j",
                     "l2_energy_per_access_j"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.leakage_voltage_exponent < 1.0:
            raise ConfigError("leakage exponent must be >= 1")


@dataclass(frozen=True)
class UncorePower:
    """GPU-level (non-cluster) power over one epoch."""

    static_w: float
    dram_w: float
    l2_w: float
    energy_j: float


class PowerModel:
    """Evaluates cluster and uncore power from epoch activity."""

    #: Cluster count the default uncore constant is sized for (Titan X).
    REFERENCE_CLUSTERS = 24

    def __init__(self, config: PowerModelConfig | None = None) -> None:
        self.config = config or PowerModelConfig()
        #: EPI table vectorised in :data:`INSTRUCTION_CLASSES` order,
        #: aligned with the activity vector's class slots.
        self._epi_vector = np.array(
            [self.config.epi_table.get(cls, 0.0)
             for cls in INSTRUCTION_CLASSES], dtype=np.float64)

    @classmethod
    def scaled_for(cls, num_clusters: int) -> "PowerModel":
        """Power model with uncore static power scaled to the GPU size.

        The default 28 W uncore belongs to a 24-cluster Titan X; a
        reduced test GPU gets a proportional share so per-cluster DVFS
        effects are not drowned by a full-size uncore floor.
        """
        if num_clusters <= 0:
            raise ConfigError("num_clusters must be positive")
        base = PowerModelConfig()
        scaled = PowerModelConfig(
            epi_table=base.epi_table,
            clock_energy_per_cycle_j=base.clock_energy_per_cycle_j,
            cluster_leakage_w=base.cluster_leakage_w,
            leakage_voltage_exponent=base.leakage_voltage_exponent,
            uncore_static_w=(base.uncore_static_w * num_clusters
                             / cls.REFERENCE_CLUSTERS),
            dram_energy_per_byte_j=base.dram_energy_per_byte_j,
            l2_energy_per_access_j=base.l2_energy_per_access_j,
        )
        return cls(scaled)

    def cluster_power_batch(self, matrix: np.ndarray, durations: np.ndarray,
                            voltages: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cluster power over stacked activity rows.

        ``matrix`` holds one activity vector per cluster row;
        ``durations`` and ``voltages`` are the per-row epoch lengths and
        operating voltages.  Returns ``(dynamic_w, static_w, energy_j)``
        arrays, one entry per row.
        """
        cfg = self.config
        if np.any(durations <= 0):
            raise ConfigError("activity duration must be positive")
        vratio = voltages / REFERENCE_VOLTAGE
        v2 = vratio * vratio

        inst_energy = matrix[:, _CLASS_SLICE] @ self._epi_vector
        clock_energy = matrix[:, A_CYCLES] * cfg.clock_energy_per_cycle_j
        dynamic_j = (inst_energy + clock_energy) * v2
        dynamic_w = dynamic_j / durations

        static_w = cfg.cluster_leakage_w * (
            vratio ** cfg.leakage_voltage_exponent)
        static_j = static_w * durations
        return dynamic_w, static_w, dynamic_j + static_j

    def uncore_power(self, matrix: np.ndarray,
                     duration_s: float) -> UncorePower:
        """Uncore power for one epoch from every cluster's activity row."""
        cfg = self.config
        if duration_s <= 0:
            raise ConfigError("epoch duration must be positive")
        dram_bytes = float(matrix[:, A_DRAM_BYTES].sum())
        l2_accesses = float(matrix[:, A_L2_ACCESS].sum())
        dram_j = dram_bytes * cfg.dram_energy_per_byte_j
        l2_j = l2_accesses * cfg.l2_energy_per_access_j
        static_j = cfg.uncore_static_w * duration_s
        return UncorePower(
            static_w=cfg.uncore_static_w,
            dram_w=dram_j / duration_s,
            l2_w=l2_j / duration_s,
            energy_j=dram_j + l2_j + static_j,
        )
