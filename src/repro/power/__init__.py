"""McPAT-surrogate power model and energy/EDP accounting."""

from .energy import EnergyAccount
from .model import (REFERENCE_VOLTAGE, PowerModel, PowerModelConfig,
                    UncorePower)
from .thermal import (ThermalConfig, ThermalNode, ThermalTracker,
                      run_with_thermal)

__all__ = [
    "EnergyAccount",
    "REFERENCE_VOLTAGE", "PowerModel", "PowerModelConfig", "UncorePower",
    "ThermalConfig", "ThermalNode", "ThermalTracker", "run_with_thermal",
]
