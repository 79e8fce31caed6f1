"""The Adam optimizer.

The optimizer owns one contiguous float64 vector for the model's
parameters and one for its gradients: on construction it copies every
layer's weights and bias into them and rebinds the layer's ``weights``,
``bias``, ``grad_weights``, ``grad_bias`` and ``mask`` as views, so a
step is a handful of whole-vector ufuncs however many layers there are.
After every step the pruning masks are re-applied as one multiply by a
flat mask that holds ones over the biases (multiplying by 1.0 is
exact), so pruned weights never drift away from zero during
fine-tuning.  Every op is elementwise, so each parameter comes out
bit-identical to updating the layers one array at a time.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .mlp import MLP


def _bind_flat(model: MLP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy the layers' arrays into flat vectors and rebind them as views.

    Returns ``(params, grads, mask)``, laid out layer by layer, weights
    then bias; the mask holds ones over the biases.
    """
    total = sum(layer.num_parameters for layer in model.layers)
    params = np.empty(total)
    grads = np.empty(total)
    mask = np.ones(total)
    offset = 0
    for layer in model.layers:
        shape = layer.weights.shape
        stop = offset + layer.weights.size
        params[offset:stop] = layer.weights.ravel()
        grads[offset:stop] = layer.grad_weights.ravel()
        mask[offset:stop] = layer.mask.ravel()
        layer.weights = params[offset:stop].reshape(shape)
        layer.grad_weights = grads[offset:stop].reshape(shape)
        layer.mask = mask[offset:stop].reshape(shape)
        offset, stop = stop, stop + layer.bias.size
        params[offset:stop] = layer.bias
        grads[offset:stop] = layer.grad_bias
        layer.bias = params[offset:stop]
        layer.grad_bias = grads[offset:stop]
        offset = stop
    return params, grads, mask


class Adam:
    """Adam optimizer (Kingma & Ba) over the model's flat vectors."""

    #: Decay rate of the first-moment estimate.
    BETA1 = 0.9
    #: Decay rate of the second-moment estimate.
    BETA2 = 0.999
    #: Denominator guard added to ``sqrt(v)``.
    EPSILON = 1e-8

    def __init__(self, model: MLP, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        self.model = model
        self.learning_rate = learning_rate
        self.params, self.grads, self._mask = _bind_flat(model)
        self._t = 0
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        self._scratch = np.empty_like(self.params)
        self._denom = np.empty_like(self.params)

    def step(self) -> None:
        """Apply one Adam update from the gradients on the layers."""
        self._t += 1
        correction1 = 1.0 - self.BETA1 ** self._t
        correction2 = 1.0 - self.BETA2 ** self._t
        scale = self.learning_rate * np.sqrt(correction2) / correction1
        m, v, scratch, denom = self._m, self._v, self._scratch, self._denom
        m *= self.BETA1
        np.multiply(self.grads, 1.0 - self.BETA1, out=scratch)
        m += scratch
        v *= self.BETA2
        np.square(self.grads, out=scratch)
        scratch *= 1.0 - self.BETA2
        v += scratch
        # params -= scale * m / (sqrt(v) + epsilon), in that op order.
        np.sqrt(v, out=denom)
        denom += self.EPSILON
        np.multiply(m, scale, out=scratch)
        scratch /= denom
        self.params -= scratch
        self.params *= self._mask
