"""Fully connected layers with pruning masks.

Each :class:`Dense` layer carries an element-wise binary mask over its
weight matrix.  The mask is the mechanism behind fine-grained magnitude
pruning (§IV-C): masked weights are held at zero through forward,
backward *and* optimizer updates, so fine-tuning a pruned model cannot
resurrect pruned connections.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .initializers import get_initializer

_ACTIVATIONS = ("relu", "linear")


class Dense:
    """A fully connected layer ``y = act(x @ (W * mask) + b)``."""

    def __init__(self, fan_in: int, fan_out: int, activation: str = "relu",
                 rng: np.random.Generator | None = None,
                 initializer: str = "he") -> None:
        if fan_in <= 0 or fan_out <= 0:
            raise ModelError("layer dimensions must be positive")
        if activation not in _ACTIVATIONS:
            raise ModelError(
                f"unknown activation {activation!r}; choose from {_ACTIVATIONS}"
            )
        rng = rng or np.random.default_rng(0)
        init = get_initializer(initializer)
        self.weights = init(rng, fan_in, fan_out)
        self.bias = np.zeros(fan_out)
        self.mask = np.ones_like(self.weights)
        self.activation = activation
        # Gradients and caches (populated by forward/backward).
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache_input: np.ndarray | None = None
        self._cache_preact: np.ndarray | None = None
        # Reusable destination for the mask multiply in `forward`; the
        # product itself is recomputed every call (weights/mask may have
        # changed), only the allocation is amortised.
        self._eff_buffer: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def fan_in(self) -> int:
        """Input width."""
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        """Output width."""
        return self.weights.shape[1]

    @property
    def num_parameters(self) -> int:
        """Total (dense) parameter count including biases."""
        return self.weights.size + self.bias.size

    @property
    def num_active_weights(self) -> int:
        """Unpruned weight count."""
        return int(self.mask.sum())

    def _masked_weights(self) -> np.ndarray:
        """Mask-applied weights written into the reusable buffer."""
        buffer = self._eff_buffer
        if buffer is None or buffer.shape != self.weights.shape:
            buffer = self._eff_buffer = np.empty_like(self.weights)
        np.multiply(self.weights, self.mask, out=buffer)
        return buffer

    def __getstate__(self) -> dict:
        # Scratch buffers and training caches are per-process state:
        # dropping them keeps pickles (checkpoints, pool tasks) lean.
        state = self.__dict__.copy()
        state["_eff_buffer"] = None
        state["_cache_input"] = None
        state["_cache_preact"] = None
        return state

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Forward pass over a batch ``x`` of shape (n, fan_in)."""
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ModelError(
                f"expected input of shape (n, {self.fan_in}), got {x.shape}"
            )
        weights = self._masked_weights()
        if train:
            # The pre-activation cache must stay pristine for backward,
            # so the training path keeps the out-of-place ops.
            preact = x @ weights + self.bias
            self._cache_input = x
            self._cache_preact = preact
            if self.activation == "relu":
                return np.maximum(preact, 0.0)
            return preact
        preact = x @ weights
        preact += self.bias
        if self.activation == "relu":
            np.maximum(preact, 0.0, out=preact)
        return preact

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; returns gradient w.r.t. the layer input.

        Must follow a ``forward(..., train=True)`` call, whose masked
        weights it reads back from the forward buffer.  The gradients
        are written into ``grad_weights``/``grad_bias`` in place, which
        may be views into an optimizer's flat gradient vector.
        """
        if self._cache_input is None or self._cache_preact is None:
            raise ModelError("backward called before forward(train=True)")
        if self.activation == "relu":
            grad_pre = grad_out * (self._cache_preact > 0.0)
        else:
            grad_pre = grad_out
        np.multiply(self._cache_input.T @ grad_pre, self.mask,
                    out=self.grad_weights)
        np.add.reduce(grad_pre, axis=0, out=self.grad_bias)
        return grad_pre @ self._eff_buffer.T

    # ------------------------------------------------------------------
    def apply_mask(self) -> None:
        """Zero out masked weights in place (post-update hygiene)."""
        self.weights *= self.mask

    def clone(self) -> "Dense":
        """Deep copy (weights, bias, mask; caches are not copied)."""
        copy = Dense.__new__(Dense)
        copy.weights = self.weights.copy()
        copy.bias = self.bias.copy()
        copy.mask = self.mask.copy()
        copy.activation = self.activation
        copy.grad_weights = np.zeros_like(self.weights)
        copy.grad_bias = np.zeros_like(self.bias)
        copy._cache_input = None
        copy._cache_preact = None
        copy._eff_buffer = None
        return copy

    def remove_output_units(self, indices: list[int]) -> None:
        """Delete output neurons (columns) — used by neuron pruning."""
        if not indices:
            return
        keep = ~np.isin(np.arange(self.fan_out), indices)
        if not keep.any():
            raise ModelError("cannot remove every neuron in a layer")
        self.weights = self.weights[:, keep]
        self.bias = self.bias[keep]
        self.mask = self.mask[:, keep]
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._eff_buffer = None

    def remove_input_units(self, indices: list[int]) -> None:
        """Delete input connections (rows) — follows upstream removal."""
        if not indices:
            return
        keep = ~np.isin(np.arange(self.fan_in), indices)
        if not keep.any():
            raise ModelError("cannot remove every input of a layer")
        self.weights = self.weights[keep, :]
        self.mask = self.mask[keep, :]
        self.grad_weights = np.zeros_like(self.weights)
