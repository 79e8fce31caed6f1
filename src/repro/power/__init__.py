"""McPAT-surrogate power model and energy/EDP accounting."""

from .energy import EnergyAccount, performance_loss
from .model import (REFERENCE_VOLTAGE, PowerModel, PowerModelConfig,
                    UncorePower)
from .thermal import (ThermalConfig, ThermalNode, ThermalTracker,
                      run_with_thermal)

__all__ = [
    "EnergyAccount", "performance_loss",
    "REFERENCE_VOLTAGE", "PowerModel", "PowerModelConfig", "UncorePower",
    "ThermalConfig", "ThermalNode", "ThermalTracker", "run_with_thermal",
]
