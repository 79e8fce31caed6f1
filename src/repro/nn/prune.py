"""Two-stage pruning (paper §IV-C).

Stage 1 — *fine-grained* magnitude pruning: zero out the fraction
``x1`` of smallest-magnitude weights across the whole network (via the
layers' masks, so fine-tuning keeps them at zero).

Stage 2 — *neuron-level* pruning (the vector-level analogue for MLPs):
any hidden neuron whose incoming weight vector is at least ``x2`` zeros
after stage 1 is deleted outright, shrinking the layer and the
following layer's input.

The paper selects ``(x1, x2) = (0.6, 0.9)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError
from .mlp import MLP


def magnitude_prune(model: MLP, fraction: float) -> int:
    """Mask out the globally smallest ``fraction`` of active weights.

    Returns the number of weights newly pruned.  Operates in place.
    """
    if not 0.0 <= fraction < 1.0:
        raise CompressionError(f"prune fraction must be in [0, 1), got {fraction}")
    if fraction == 0.0:
        return 0
    magnitudes = []
    for layer in model.layers:
        active = layer.mask > 0
        magnitudes.append(np.abs(layer.weights[active]))
    all_mags = np.concatenate(magnitudes)
    if all_mags.size == 0:
        raise CompressionError("model has no active weights to prune")
    threshold = np.quantile(all_mags, fraction)
    pruned = 0
    for layer in model.layers:
        to_prune = (np.abs(layer.weights) <= threshold) & (layer.mask > 0)
        pruned += int(to_prune.sum())
        layer.mask[to_prune] = 0.0
        layer.apply_mask()
    return pruned


def neuron_prune(model: MLP, zero_threshold: float) -> int:
    """Remove hidden neurons whose incoming weights are mostly pruned.

    A neuron is deleted when the fraction of zero (masked) weights in
    its incoming vector is ``>= zero_threshold``.  At least one neuron
    per hidden layer is always kept.  Returns the number of neurons
    removed.  Operates in place.
    """
    if not 0.0 < zero_threshold <= 1.0:
        raise CompressionError(
            f"zero threshold must be in (0, 1], got {zero_threshold}"
        )
    removed_total = 0
    for layer_index in range(len(model.layers) - 1):
        layer = model.layers[layer_index]
        zero_fraction = 1.0 - layer.mask.mean(axis=0)  # per output neuron
        candidates = [int(j) for j in np.nonzero(
            zero_fraction >= zero_threshold - 1e-12)[0]]
        # Keep at least one neuron in the layer.
        max_removable = layer.fan_out - 1
        if len(candidates) > max_removable:
            # Keep the neurons with the *fewest* zeros.
            order = np.argsort(zero_fraction[candidates])
            candidates = [candidates[i] for i in order[:max_removable]]
        if candidates:
            model.remove_hidden_neurons(layer_index, candidates)
            removed_total += len(candidates)
    return removed_total


def prune_model(model: MLP, magnitude_fraction: float,
                neuron_zero_threshold: float) -> None:
    """Run both pruning stages in place."""
    magnitude_prune(model, magnitude_fraction)
    neuron_prune(model, neuron_zero_threshold)
