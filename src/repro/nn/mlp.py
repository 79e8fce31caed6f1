"""Multi-layer perceptron.

The paper's Decision-maker and Calibrator are small ReLU MLPs
(§III-D).  :class:`MLP` is a plain sequential stack of
:class:`~repro.nn.layers.Dense` layers: hidden layers use ReLU, the
output layer is linear (softmax/MSE live in the loss functions).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .layers import Dense


class MLP:
    """A sequential fully connected network.

    Parameters
    ----------
    layer_sizes:
        ``[input, hidden..., output]`` widths; at least ``[in, out]``.
    rng:
        Generator used for weight init (determinism).
    """

    def __init__(self, layer_sizes: list[int],
                 rng: np.random.Generator | None = None) -> None:
        if len(layer_sizes) < 2:
            raise ModelError("need at least input and output sizes")
        if any(s <= 0 for s in layer_sizes):
            raise ModelError("layer sizes must be positive")
        rng = rng or np.random.default_rng(0)
        self.layers: list[Dense] = []
        for index, (fan_in, fan_out) in enumerate(
                zip(layer_sizes, layer_sizes[1:])):
            is_output = index == len(layer_sizes) - 2
            activation = "linear" if is_output else "relu"
            initializer = "xavier" if is_output else "he"
            self.layers.append(
                Dense(fan_in, fan_out, activation=activation, rng=rng,
                      initializer=initializer)
            )

    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        """Expected feature-vector width."""
        return self.layers[0].fan_in

    @property
    def output_size(self) -> int:
        """Output width (classes or regression targets)."""
        return self.layers[-1].fan_out

    @property
    def layer_sizes(self) -> list[int]:
        """Current ``[input, hidden..., output]`` widths."""
        return [self.layers[0].fan_in] + [layer.fan_out for layer in self.layers]

    @property
    def num_parameters(self) -> int:
        """Dense parameter count including biases."""
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def num_active_weights(self) -> int:
        """Unpruned weight count (excludes biases)."""
        return sum(layer.num_active_weights for layer in self.layers)

    @property
    def sparsity(self) -> float:
        """Fraction of weights currently pruned."""
        total = sum(layer.weights.size for layer in self.layers)
        return 1.0 - self.num_active_weights / total if total else 0.0

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run the network on a batch (n, input_size) -> (n, output_size).

        Inference (``train=False``) is the controller's per-epoch hot
        path: layers apply bias/activation in place on the fresh matmul
        output and reuse a preallocated buffer for the pruning-mask
        multiply, so a forward pass allocates one array per layer.
        Stacking all clusters into one batch amortises that and turns N
        vector passes into a single matmul per layer.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient; returns grad w.r.t. inputs."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        """Argmax class prediction (for classifier heads)."""
        return np.argmax(self.forward(x), axis=1)

    def predict_scalar(self, x: np.ndarray) -> np.ndarray:
        """Scalar prediction (for single-output regressor heads)."""
        if self.output_size != 1:
            raise ModelError("predict_scalar requires a single-output model")
        return self.forward(x)[:, 0]

    # ------------------------------------------------------------------
    def clone(self) -> "MLP":
        """Deep copy of the network."""
        copy = MLP.__new__(MLP)
        copy.layers = [layer.clone() for layer in self.layers]
        return copy

    def remove_hidden_neurons(self, layer_index: int,
                              neuron_indices: list[int]) -> None:
        """Remove hidden neurons from layer ``layer_index``.

        Deletes the output units of the layer and the corresponding
        input rows of the next layer.  The output layer cannot be
        shrunk (its width is the task's class/target count).
        """
        if not 0 <= layer_index < len(self.layers) - 1:
            raise ModelError(
                "can only remove neurons from hidden layers "
                f"(got index {layer_index} of {len(self.layers)} layers)"
            )
        self.layers[layer_index].remove_output_units(neuron_indices)
        self.layers[layer_index + 1].remove_input_units(neuron_indices)
