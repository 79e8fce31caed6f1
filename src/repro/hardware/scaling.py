"""Technology-node scaling (DeepScaleTool surrogate, §V-D).

The paper synthesises the SSMDVFS module with a 65 nm TSMC library and
scales area and power to the GPU's 28 nm node with DeepScaleTool
(Sarangi & Baas, ISCAS 2021).  We reproduce that step with a published
scaling table: area follows the classic node-length-squared trend
(with a dash of layout inefficiency at small nodes), and energy follows
capacitance x V^2 using representative nominal voltages per node.
"""

from __future__ import annotations

from ..errors import HardwareModelError

#: Per-node scaling data relative to the 65 nm reference.
#: area_factor: block area multiplier; energy_factor: switching-energy
#: multiplier (C * V^2 trend with nominal voltages).
_NODES: dict[int, dict[str, float]] = {
    90: {"area_factor": 1.92, "energy_factor": 1.65},
    65: {"area_factor": 1.00, "energy_factor": 1.00},
    45: {"area_factor": 0.53, "energy_factor": 0.62},
    40: {"area_factor": 0.45, "energy_factor": 0.55},
    32: {"area_factor": 0.30, "energy_factor": 0.42},
    28: {"area_factor": 0.24, "energy_factor": 0.35},
    22: {"area_factor": 0.16, "energy_factor": 0.27},
    16: {"area_factor": 0.10, "energy_factor": 0.20},
}


def supported_nodes() -> list[int]:
    """Nodes with scaling data, largest first."""
    return sorted(_NODES, reverse=True)


def _factors(node_nm: int) -> dict[str, float]:
    try:
        return _NODES[int(node_nm)]
    except KeyError:
        raise HardwareModelError(
            f"no scaling data for {node_nm} nm; supported: "
            f"{supported_nodes()}"
        ) from None


def scale_area(area_mm2: float, from_node_nm: int, to_node_nm: int) -> float:
    """Scale a block area between technology nodes."""
    if area_mm2 < 0:
        raise HardwareModelError("area cannot be negative")
    return (area_mm2 * _factors(to_node_nm)["area_factor"]
            / _factors(from_node_nm)["area_factor"])


def scale_energy(energy_j: float, from_node_nm: int, to_node_nm: int) -> float:
    """Scale a switching energy between technology nodes."""
    if energy_j < 0:
        raise HardwareModelError("energy cannot be negative")
    return (energy_j * _factors(to_node_nm)["energy_factor"]
            / _factors(from_node_nm)["energy_factor"])
