"""McPAT-surrogate power model and energy/EDP accounting."""

from .energy import EnergyAccount
from .model import REFERENCE_VOLTAGE, PowerModel, PowerModelConfig
from .thermal import (ThermalConfig, ThermalNode, ThermalTracker,
                      run_with_thermal)

__all__ = [
    "EnergyAccount",
    "REFERENCE_VOLTAGE", "PowerModel", "PowerModelConfig",
    "ThermalConfig", "ThermalNode", "ThermalTracker", "run_with_thermal",
]
