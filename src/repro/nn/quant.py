"""Fixed-point quantization.

The paper's ASIC module computes in FP32 (§V-D), but a fixed-point
variant is the natural ablation for the hardware cost model, and
quantization error bounds feed the ASIC datapath's precision argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from .mlp import MLP


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format Q(integer_bits).(fraction_bits)."""

    total_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ModelError("need at least 2 bits (sign + magnitude)")
        if not 0 <= self.fraction_bits < self.total_bits:
            raise ModelError("fraction bits must fit inside total bits")

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        return -(2 ** (self.total_bits - 1)) * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-to-nearest quantization with saturation."""
        quantized = np.round(values / self.scale) * self.scale
        return np.clip(quantized, self.min_value, self.max_value)


def choose_format(values: np.ndarray, total_bits: int) -> FixedPointFormat:
    """Pick the fraction-bit count that covers the value range."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        return FixedPointFormat(total_bits, total_bits - 1)
    integer_bits = max(0, int(np.ceil(np.log2(peak + 1e-12))) + 1)
    fraction_bits = max(0, total_bits - 1 - integer_bits)
    return FixedPointFormat(total_bits, fraction_bits)


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of quantizing one model."""

    total_bits: int
    max_weight_error: float


def quantize_model(model: MLP, total_bits: int = 16) -> tuple[MLP, QuantizationReport]:
    """Return a quantized copy of ``model`` and an error report.

    Each layer gets its own fixed-point format sized to its weight
    range (per-layer scaling, standard practice for tiny MLP engines).
    """
    quantized = model.clone()
    max_err = 0.0
    for layer in quantized.layers:
        fmt = choose_format(layer.weights, total_bits)
        original = layer.weights.copy()
        layer.weights = fmt.quantize(layer.weights)
        layer.apply_mask()
        err = np.abs(layer.weights - original)
        if err.size:
            max_err = max(max_err, float(err.max()))
        bias_fmt = choose_format(layer.bias, total_bits)
        layer.bias = bias_fmt.quantize(layer.bias)
    report = QuantizationReport(
        total_bits=total_bits,
        max_weight_error=max_err,
    )
    return quantized, report
