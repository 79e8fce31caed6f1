"""ASIC implementation cost model (paper §V-D)."""

from .asic import WEIGHT_BITS, ASICModel, ASICReport
from .scaling import scale_area, scale_energy, supported_nodes

__all__ = [
    "WEIGHT_BITS", "ASICModel", "ASICReport",
    "scale_area", "scale_energy", "supported_nodes",
]
