#!/usr/bin/env python3
"""ASIC cost of the SSMDVFS inference module (paper §V-D).

Builds a compressed+pruned model pair at the paper's final architecture
and prints the inference engine's cycle count, latency, area and power
at 65 nm and scaled to 28 nm, next to the paper's reported numbers.
Also shows the effect of quantizing the weights to 16-bit fixed point.

Usage::

    python examples/hardware_cost.py
"""

import numpy as np

from repro.hardware import ASICModel
from repro.nn.compress import PAPER_COMPRESSED_SPEC, PAPER_PRUNE_PARAMS
from repro.nn.mlp import MLP
from repro.nn.prune import prune_model
from repro.nn.quant import quantize_model
from repro.units import us


def build_compressed_pair():
    """A 3+2x12 pair pruned with (x1, x2) = (0.6, 0.9) — Table II scale."""
    rng = np.random.default_rng(0)
    decision = MLP([6, *PAPER_COMPRESSED_SPEC.decision_hidden, 6], rng=rng)
    calibrator = MLP([7, *PAPER_COMPRESSED_SPEC.calibrator_hidden, 1],
                     rng=rng)
    x1, x2 = PAPER_PRUNE_PARAMS
    for model in (decision, calibrator):
        prune_model(model, x1, x2)
    return [decision, calibrator]


def main():
    models = build_compressed_pair()
    asic = ASICModel()
    report = asic.report(models, sparse=True, node_nm=28)

    print("SSMDVFS inference module (compressed + pruned pair)")
    print(f"  cycles / inference : {report.cycles_per_inference} "
          "(paper: 192)")
    print(f"  latency            : {report.latency_us:.3f} us "
          "(paper: 0.16 us @ 1165 MHz)")
    print(f"  area @65nm         : {report.area_mm2_reference:.4f} mm^2")
    print(f"  area @28nm         : {report.area_mm2_scaled:.4f} mm^2 "
          "(paper: 0.0080 mm^2)")
    print(f"  power              : {report.power_w_scaled * 1e3:.2f} mW "
          "(paper: 2.5 mW)")
    print(f"  share of 10us epoch: "
          f"{report.epoch_fraction(us(10)) * 100:.2f}% (paper: 1.65%)")
    print(f"  share of 250W TDP  : "
          f"{report.tdp_fraction(250.0) * 100:.5f}%")

    print("\nfixed-point ablation (weights quantized per layer):")
    for bits in (8, 12, 16):
        errors = []
        for model in models:
            _, quant_report = quantize_model(model, total_bits=bits)
            errors.append(quant_report.max_weight_error)
        print(f"  {bits:2d}-bit: max weight error {max(errors):.5f}")


if __name__ == "__main__":
    main()
