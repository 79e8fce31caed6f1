"""FLOPs accounting.

Model complexity in the paper is reported as FLOPs per inference
(Fig. 3, Table II: 6960 FLOPs before compression, 366 after).  We count
a dense layer as ``2 * fan_in * fan_out`` (multiply + add per weight)
plus ``fan_out`` for the bias add and ``fan_out`` for the activation.
For pruned models, only *active* (unmasked) weights count — this is the
"FLOPs with sparsity" number a sparse ASIC datapath would execute.
"""

from __future__ import annotations

from ..errors import ModelError
from .layers import Dense
from .mlp import MLP


def layer_flops(layer: Dense, sparse: bool = False) -> int:
    """FLOPs for one dense layer's forward pass."""
    active = layer.num_active_weights if sparse else layer.weights.size
    return 2 * active + 2 * layer.fan_out


def model_flops(model: MLP, sparse: bool = False) -> int:
    """FLOPs for one full forward pass of ``model``."""
    if not model.layers:
        raise ModelError("model has no layers")
    return sum(layer_flops(layer, sparse=sparse) for layer in model.layers)


def macs(model: MLP, sparse: bool = False) -> int:
    """Multiply-accumulate count (half the weight FLOPs)."""
    total = 0
    for layer in model.layers:
        total += layer.num_active_weights if sparse else layer.weights.size
    return total
