"""``fit`` against a readable per-layer reference trainer, bit for bit.

The reference below is the per-layer training code: each optimizer
walks the layers and updates every weight matrix and bias vector on its
own, then re-zeroes each layer's masked weights; backward rebinds fresh
gradient arrays; the best-epoch checkpoint clones every layer and the
restore swaps the clones in.  ``repro.nn.trainer.fit`` must produce the
same model bytes and the same :class:`TrainHistory` on every input.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.mlp import MLP
from repro.nn.serialize import model_to_bytes
from repro.nn.trainer import TrainConfig, TrainHistory, fit


class _ReferenceSGD:
    """Per-layer SGD with classical momentum."""

    def __init__(self, model, learning_rate, momentum):
        self.model = model
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [
            (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in model.layers
        ]

    def step(self):
        for layer, (vel_w, vel_b) in zip(self.model.layers, self._velocity):
            vel_w *= self.momentum
            vel_w -= self.learning_rate * layer.grad_weights
            vel_b *= self.momentum
            vel_b -= self.learning_rate * layer.grad_bias
            layer.weights += vel_w
            layer.bias += vel_b
        for layer in self.model.layers:
            layer.weights *= layer.mask


class _ReferenceAdam:
    """Per-layer Adam (Kingma & Ba)."""

    def __init__(self, model, learning_rate, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.model = model
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._t = 0
        self._moments = [
            (np.zeros_like(layer.weights), np.zeros_like(layer.weights),
             np.zeros_like(layer.bias), np.zeros_like(layer.bias))
            for layer in model.layers
        ]

    def step(self):
        self._t += 1
        correction1 = 1.0 - self.beta1 ** self._t
        correction2 = 1.0 - self.beta2 ** self._t
        scale = self.learning_rate * np.sqrt(correction2) / correction1
        for layer, (m_w, v_w, m_b, v_b) in zip(self.model.layers,
                                               self._moments):
            m_w *= self.beta1
            m_w += (1.0 - self.beta1) * layer.grad_weights
            v_w *= self.beta2
            v_w += (1.0 - self.beta2) * layer.grad_weights ** 2
            layer.weights -= scale * m_w / (np.sqrt(v_w) + self.epsilon)
            m_b *= self.beta1
            m_b += (1.0 - self.beta1) * layer.grad_bias
            v_b *= self.beta2
            v_b += (1.0 - self.beta2) * layer.grad_bias ** 2
            layer.bias -= scale * m_b / (np.sqrt(v_b) + self.epsilon)
        for layer in self.model.layers:
            layer.weights *= layer.mask


def _reference_backward(model, grad_out):
    """Per-layer backward that rebinds fresh gradient arrays."""
    for layer in reversed(model.layers):
        if layer.activation == "relu":
            grad_pre = grad_out * (layer._cache_preact > 0.0)
        else:
            grad_pre = grad_out
        layer.grad_weights = (layer._cache_input.T @ grad_pre) * layer.mask
        layer.grad_bias = grad_pre.sum(axis=0)
        grad_out = grad_pre @ (layer.weights * layer.mask).T


def _reference_clip(model, max_norm):
    total = 0.0
    for layer in model.layers:
        total += float((layer.grad_weights ** 2).sum())
        total += float((layer.grad_bias ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for layer in model.layers:
            layer.grad_weights *= scale
            layer.grad_bias *= scale


def _reference_validation_forward(model, x):
    for layer in model.layers:
        out = x @ (layer.weights * layer.mask)
        out += layer.bias
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        x = out
    return x


def _reference_fit(model, features, targets, loss_fn, config):
    """The per-layer training loop with a layer-clone checkpoint."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(features.shape[0])
    n_val = int(features.shape[0] * config.validation_fraction)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = features[train_idx], targets[train_idx]
    x_val, y_val = features[val_idx], targets[val_idx]

    if config.optimizer == "adam":
        optimizer = _ReferenceAdam(model, config.learning_rate)
    else:
        optimizer = _ReferenceSGD(model, config.learning_rate,
                                  config.momentum)
    history = TrainHistory()
    best_loss = np.inf
    best_layers = None
    since_best = 0
    for epoch in range(config.epochs):
        if config.lr_step and epoch and epoch % config.lr_step == 0:
            optimizer.learning_rate *= config.lr_decay
        perm = rng.permutation(x_train.shape[0])
        x_shuffled, y_shuffled = x_train[perm], y_train[perm]
        epoch_loss = 0.0
        batches = 0
        for start in range(0, x_train.shape[0], config.batch_size):
            stop = start + config.batch_size
            outputs = model.forward(x_shuffled[start:stop], train=True)
            loss, grad = loss_fn(outputs, y_shuffled[start:stop])
            _reference_backward(model, grad)
            if config.weight_decay > 0:
                for layer in model.layers:
                    layer.grad_weights += config.weight_decay * layer.weights
            if config.gradient_clip > 0:
                _reference_clip(model, config.gradient_clip)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        history.train_losses.append(epoch_loss / max(1, batches))

        if n_val > 0:
            val_loss, _ = loss_fn(_reference_validation_forward(model, x_val),
                                  y_val)
        else:
            val_loss = history.train_losses[-1]
        history.val_losses.append(val_loss)

        if val_loss < best_loss - config.min_delta:
            best_loss = val_loss
            best_layers = [layer.clone() for layer in model.layers]
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                history.stopped_early = True
                break

    if best_layers is not None:
        model.layers = best_layers
    return history


def _masked_model(sizes, seed, density, zero_masked, dead_column):
    """An MLP with random pruning masks.

    With ``zero_masked`` False the masked weights keep their values, so
    only the optimizer's mask multiply zeroes them; ``dead_column``
    masks one hidden neuron's whole incoming column.
    """
    rng = np.random.default_rng(seed)
    model = MLP(sizes, rng=rng)
    if density < 1.0:
        for layer in model.layers:
            layer.mask[...] = rng.random(layer.mask.shape) < density
    if dead_column and len(model.layers) > 1:
        layer = model.layers[0]
        layer.mask[:, rng.integers(layer.fan_out)] = 0.0
    if zero_masked:
        for layer in model.layers:
            layer.apply_mask()
    return model


def _train_both(sizes, seed, density, zero_masked, dead_column, regression,
                n_samples, config):
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(n_samples, sizes[0]))
    if regression:
        y = rng.normal(size=(n_samples, sizes[-1]))
        loss_fn = MeanSquaredError()
    else:
        y = rng.integers(0, sizes[-1], size=n_samples)
        loss_fn = SoftmaxCrossEntropy()
    model = _masked_model(sizes, seed, density, zero_masked, dead_column)
    reference = model.clone()
    history = fit(model, x, y, loss_fn, config)
    ref_history = _reference_fit(reference, x, y, loss_fn, config)
    return model, history, reference, ref_history


def _assert_same(model, history, reference, ref_history):
    assert model_to_bytes(model) == model_to_bytes(reference)
    # repr prints every loss at round-trip precision, and a NaN loss
    # compares equal to itself there.
    assert repr(history) == repr(ref_history)


@st.composite
def _training_cases(draw):
    depth = draw(st.integers(0, 3))
    sizes = [draw(st.integers(1, 10))]
    sizes += [draw(st.integers(1, 12)) for _ in range(depth)]
    regression = draw(st.booleans())
    sizes.append(draw(st.integers(1, 3)) if regression
                 else draw(st.integers(2, 5)))
    config = TrainConfig(
        epochs=draw(st.integers(1, 12)),
        batch_size=draw(st.sampled_from([1, 4, 16, 64])),
        learning_rate=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
        validation_fraction=draw(st.sampled_from([0.0, 0.2, 0.5])),
        patience=draw(st.integers(1, 4)),
        optimizer=draw(st.sampled_from(["adam", "sgd"])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        min_delta=draw(st.sampled_from([0.0, 1e-4])),
        weight_decay=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        gradient_clip=draw(st.sampled_from([0.0, 0.05, 1.0])),
        lr_decay=draw(st.sampled_from([0.5, 1.0])),
        lr_step=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 1000)),
    )
    return dict(sizes=sizes, seed=draw(st.integers(0, 10_000)),
                density=draw(st.sampled_from([1.0, 0.7, 0.3])),
                zero_masked=draw(st.booleans()),
                dead_column=draw(st.booleans()),
                regression=regression,
                n_samples=draw(st.integers(2, 40)), config=config)


@settings(max_examples=80, deadline=None)
@given(_training_cases())
@example(dict(sizes=[3, 6, 2], seed=1, density=0.5, zero_masked=False,
              dead_column=True, regression=False, n_samples=30,
              config=TrainConfig(epochs=4, batch_size=8, learning_rate=0.01,
                                 validation_fraction=0.0, patience=4,
                                 seed=2)))
def test_fit_matches_per_layer_reference(case):
    _assert_same(*_train_both(**case))


# Cases whose outcome the property above may miss: an early stop that
# restores an epoch before the last, and masked weights left non-zero
# so that only the optimizer's mask multiply zeroes them.
_EARLY_STOP = TrainConfig(epochs=60, batch_size=4, learning_rate=0.1,
                          validation_fraction=0.3, patience=3,
                          weight_decay=1e-3, gradient_clip=1.0,
                          lr_step=5, lr_decay=0.5, seed=4)


def test_early_stop_restores_the_best_epoch_like_the_reference():
    for optimizer in ("adam", "sgd"):
        config = dataclasses.replace(_EARLY_STOP, optimizer=optimizer)
        model, history, reference, ref_history = _train_both(
            [4, 8, 8, 3], 7, 0.6, False, True, False, 48, config)
        assert history.stopped_early
        assert history.best_epoch < history.epochs_run - 1
        _assert_same(model, history, reference, ref_history)


def test_masked_weights_are_zero_after_fit():
    for optimizer in ("adam", "sgd"):
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                             validation_fraction=0.0, patience=3,
                             optimizer=optimizer, seed=1)
        model, history, reference, ref_history = _train_both(
            [3, 6, 2], 1, 0.5, False, True, True, 24, config)
        for layer in model.layers:
            assert not np.any(layer.weights[layer.mask == 0.0])
        _assert_same(model, history, reference, ref_history)
