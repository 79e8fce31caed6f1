"""ASIC cost model for the SSMDVFS inference module (§V-D).

The paper implements the compressed model as an FP32 ASIC block:
192 cycles per inference (0.16 µs at 1165 MHz, 1.65 % of a 10 µs
epoch), 0.0080 mm² and 0.0025 W after scaling from 65 nm to 28 nm.

We model the natural microarchitecture for a ~180-MAC workload: a small
number of FP32 MAC units streaming weights from a local SRAM, one layer
at a time.  Cycles come from the MAC schedule plus per-layer pipeline
fill and I/O; area and energy come from published 65 nm FP32-MAC and
SRAM figures, then node-scale to 28 nm via :mod:`repro.hardware.scaling`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HardwareModelError
from ..nn.flops import macs
from ..nn.mlp import MLP
from ..units import to_us
from .scaling import scale_area, scale_energy

#: Weight precision of the paper's module (FP32, §V-D).
WEIGHT_BITS = 32

# Published 65 nm figures the model is built from.
#: Technology node of the constants below (nm).
REFERENCE_NODE_NM = 65
#: Area of one FP32 multiply-accumulate unit (mm²).
MAC_AREA_MM2 = 0.020
#: Single-port SRAM area (mm² per bit, i.e. 0.55 um²/bit).
SRAM_AREA_MM2_PER_BIT = 0.55e-6
#: SRAM read energy (J per bit).
SRAM_READ_ENERGY_J_PER_BIT = 0.05e-12
#: Control logic area as a fraction of datapath + SRAM.
CONTROL_AREA_OVERHEAD = 0.35
#: Pipeline fill cycles per layer.
PIPELINE_CYCLES_PER_LAYER = 4
#: Input/output transfer cycles per inference.
IO_CYCLES = 12
#: FP32 MAC units in the datapath: one, streaming weights from SRAM
#: one layer at a time.
NUM_MACS = 1
#: Clock of the inference engine (Hz), the Titan X's 1165 MHz.
CLOCK_HZ = 1165e6
#: Energy of one FP32 multiply-accumulate at 65 nm (J).
MAC_ENERGY_J = 12e-12
#: Leakage as a share of total inference energy.
LEAKAGE_FRACTION = 0.15


@dataclass(frozen=True)
class ASICReport:
    """Cost of running a model pair on the inference engine."""

    cycles_per_inference: int
    latency_s: float
    area_mm2_reference: float
    area_mm2_scaled: float
    energy_per_inference_j: float
    power_w_scaled: float
    node_nm: int
    reference_node_nm: int

    @property
    def latency_us(self) -> float:
        """Inference latency in microseconds."""
        return to_us(self.latency_s)

    def epoch_fraction(self, epoch_s: float) -> float:
        """Share of one DVFS epoch spent on inference."""
        if epoch_s <= 0:
            raise HardwareModelError("epoch must be positive")
        return self.latency_s / epoch_s

    def tdp_fraction(self, gpu_tdp_w: float) -> float:
        """Inference power as a share of the GPU's TDP."""
        if gpu_tdp_w <= 0:
            raise HardwareModelError("TDP must be positive")
        return self.power_w_scaled / gpu_tdp_w


class ASICModel:
    """Analytical cost model of the SSMDVFS inference engine."""

    def _total_macs(self, models: list[MLP], sparse: bool) -> int:
        if not models:
            raise HardwareModelError("no models given")
        return sum(macs(model, sparse=sparse) for model in models)

    def _total_layers(self, models: list[MLP]) -> int:
        return sum(len(model.layers) for model in models)

    def _weight_bits(self, models: list[MLP], sparse: bool) -> int:
        # Sparse storage still keeps per-weight indices; approximate a
        # compressed-sparse layout as value bits + 25 % index overhead.
        bits = self._total_macs(models, sparse) * WEIGHT_BITS
        return int(bits * 1.25) if sparse else bits

    def cycles_per_inference(self, models: list[MLP],
                             sparse: bool = True) -> int:
        """MAC schedule + per-layer pipeline fill + I/O."""
        mac_cycles = -(-self._total_macs(models, sparse) // NUM_MACS)
        overhead = (PIPELINE_CYCLES_PER_LAYER * self._total_layers(models)
                    + IO_CYCLES)
        return mac_cycles + overhead

    def area_mm2(self, models: list[MLP], sparse: bool = True,
                 node_nm: int | None = None) -> float:
        """Die area at the requested node (default: reference node)."""
        sram = self._weight_bits(models, sparse) * SRAM_AREA_MM2_PER_BIT
        datapath = NUM_MACS * MAC_AREA_MM2
        area = (datapath + sram) * (1.0 + CONTROL_AREA_OVERHEAD)
        if node_nm is None or node_nm == REFERENCE_NODE_NM:
            return area
        return scale_area(area, REFERENCE_NODE_NM, node_nm)

    def energy_per_inference_j(self, models: list[MLP], sparse: bool = True,
                               node_nm: int | None = None) -> float:
        """Dynamic energy of one inference (plus leakage share)."""
        n_macs = self._total_macs(models, sparse)
        mac_energy = n_macs * MAC_ENERGY_J
        sram_energy = n_macs * WEIGHT_BITS * SRAM_READ_ENERGY_J_PER_BIT
        dynamic = mac_energy + sram_energy
        total = dynamic / (1.0 - LEAKAGE_FRACTION)
        if node_nm is None or node_nm == REFERENCE_NODE_NM:
            return total
        return scale_energy(total, REFERENCE_NODE_NM, node_nm)

    def report(self, models: list[MLP], sparse: bool = True,
               node_nm: int = 28) -> ASICReport:
        """Full §V-D style cost report at ``node_nm``."""
        cycles = self.cycles_per_inference(models, sparse)
        latency = cycles / CLOCK_HZ
        energy = self.energy_per_inference_j(models, sparse, node_nm)
        return ASICReport(
            cycles_per_inference=cycles,
            latency_s=latency,
            area_mm2_reference=self.area_mm2(models, sparse),
            area_mm2_scaled=self.area_mm2(models, sparse, node_nm),
            energy_per_inference_j=energy,
            power_w_scaled=energy / latency,
            node_nm=node_nm,
            reference_node_nm=REFERENCE_NODE_NM,
        )
