"""Training loop: convergence, early stopping, validation."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.mlp import MLP
from repro.nn.trainer import (TrainConfig, train_classifier, train_regressor)


def _blobs(n=300, seed=0):
    """Three linearly separable 2-D blobs."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    labels = rng.integers(0, 3, size=n)
    x = centers[labels] + rng.normal(scale=0.5, size=(n, 2))
    return x, labels


def test_classifier_learns_blobs():
    x, y = _blobs()
    model = MLP([2, 16, 3], rng=np.random.default_rng(1))
    train_classifier(model, x, y, TrainConfig(
        epochs=150, learning_rate=5e-3, patience=30, seed=1))
    assert accuracy(model.predict_class(x), y) > 0.95


def test_regressor_learns_linear_map():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(400, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.3
    model = MLP([3, 16, 1], rng=rng)
    train_regressor(model, x, y, TrainConfig(epochs=80, seed=2))
    pred = model.predict_scalar(x)
    residual = np.mean((pred - y) ** 2) / np.var(y)
    assert residual < 0.05


def test_early_stopping_triggers():
    # Heavily overlapping classes: validation loss plateaus quickly, so
    # patience must fire long before the epoch budget.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    y = rng.integers(0, 3, size=200)
    model = MLP([2, 16, 3], rng=rng)
    history = train_classifier(
        model, x, y, TrainConfig(epochs=500, patience=5, seed=3))
    assert history.epochs_run < 500


def test_best_checkpoint_restored():
    x, y = _blobs(n=200)
    model = MLP([2, 16, 3], rng=np.random.default_rng(4))
    history = train_classifier(
        model, x, y, TrainConfig(epochs=40, patience=40, seed=4))
    assert 0 <= history.best_epoch < history.epochs_run
    assert history.val_losses[history.best_epoch] == min(history.val_losses)


def test_best_checkpoint_weights_restored():
    """After an early stop the model holds its best-epoch weights, not
    the last epoch's: its loss on the validation split is the best one."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    y = rng.integers(0, 3, size=200)
    model = MLP([2, 16, 3], rng=rng)
    config = TrainConfig(epochs=500, patience=5, seed=3)
    history = train_classifier(model, x, y, config)
    assert history.epochs_run < config.epochs
    assert history.best_epoch < history.epochs_run - 1
    order = np.random.default_rng(config.seed).permutation(x.shape[0])
    val = order[:int(x.shape[0] * config.validation_fraction)]
    loss, _ = SoftmaxCrossEntropy()(model.forward(x[val]), y[val])
    assert loss == pytest.approx(history.val_losses[history.best_epoch],
                                 rel=1e-12)
    assert loss < history.val_losses[-1]


def test_training_is_deterministic():
    x, y = _blobs(n=150)
    results = []
    for _ in range(2):
        model = MLP([2, 8, 3], rng=np.random.default_rng(5))
        train_classifier(model, x, y, TrainConfig(epochs=10, seed=5))
        results.append(model.forward(x[:5]))
    assert np.allclose(results[0], results[1])


def test_shape_validation():
    model = MLP([2, 4, 3])
    with pytest.raises(TrainingError):
        train_classifier(model, np.ones((5, 3)), np.zeros(5, dtype=int))
    with pytest.raises(TrainingError):
        train_classifier(model, np.ones((5, 2)), np.zeros(4, dtype=int))
    with pytest.raises(TrainingError):
        train_classifier(model, np.ones((1, 2)), np.zeros(1, dtype=int))


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainingError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(TrainingError):
        TrainConfig(patience=0)


def test_zero_validation_fraction_uses_train_loss():
    x, y = _blobs(n=100)
    model = MLP([2, 8, 3], rng=np.random.default_rng(7))
    history = train_classifier(model, x, y, TrainConfig(
        epochs=10, validation_fraction=0.0, patience=10, seed=7))
    assert history.val_losses == history.train_losses
