"""Losses, optimizers and metrics."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy, softmax
from repro.nn.metrics import accuracy, mape, within_one_accuracy
from repro.nn.mlp import MLP
from repro.nn.optim import Adam


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(0).normal(size=(5, 4)) * 10
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)


def test_softmax_stable_for_large_logits():
    probs = softmax(np.array([[1e4, 0.0]]))
    assert np.isfinite(probs).all()


def test_cross_entropy_perfect_prediction_near_zero():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    loss, _ = SoftmaxCrossEntropy()(logits, np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_gradient_direction():
    logits = np.zeros((1, 3))
    _, grad = SoftmaxCrossEntropy()(logits, np.array([1]))
    assert grad[0, 1] < 0  # push the true class up
    assert grad[0, 0] > 0 and grad[0, 2] > 0


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(TrainingError):
        SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(TrainingError):
        SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0]))


def test_mse_value_and_gradient():
    pred = np.array([[1.0], [2.0]])
    target = np.array([[0.0], [2.0]])
    loss, grad = MeanSquaredError()(pred, target)
    assert loss == pytest.approx(0.5)
    assert grad[0, 0] == pytest.approx(1.0)
    assert grad[1, 0] == pytest.approx(0.0)


def test_mse_accepts_1d_targets():
    loss, _ = MeanSquaredError()(np.array([[1.0]]), np.array([1.0]))
    assert loss == pytest.approx(0.0)


def test_adam_reduces_loss_on_toy_problem():
    rng = np.random.default_rng(6)
    model = MLP([2, 8, 1], rng=rng)
    x = rng.normal(size=(64, 2))
    y = np.sin(x[:, :1])
    loss_fn = MeanSquaredError()
    opt = Adam(model, learning_rate=0.01)
    first, _ = loss_fn(model.forward(x), y)
    for _ in range(300):
        out = model.forward(x, train=True)
        _, grad = loss_fn(out, y)
        model.backward(grad)
        opt.step()
    last, _ = loss_fn(model.forward(x), y)
    assert last < first * 0.2


def test_optimizers_respect_masks():
    rng = np.random.default_rng(7)
    model = MLP([2, 4, 1], rng=rng)
    model.layers[0].mask[0, 0] = 0.0
    model.layers[0].apply_mask()
    opt = Adam(model, learning_rate=0.1)
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(8, 1))
    for _ in range(5):
        out = model.forward(x, train=True)
        _, grad = MeanSquaredError()(out, y)
        model.backward(grad)
        opt.step()
    assert model.layers[0].weights[0, 0] == 0.0


def test_optimizer_validation():
    model = MLP([2, 2, 1])
    with pytest.raises(TrainingError):
        Adam(model, learning_rate=0.0)
    with pytest.raises(TrainingError):
        Adam(model, learning_rate=-1)


def test_accuracy_metric():
    assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 1])) == pytest.approx(2 / 3)
    with pytest.raises(TrainingError):
        accuracy(np.array([]), np.array([]))
    with pytest.raises(TrainingError):
        accuracy(np.array([1]), np.array([1, 2]))


def test_within_one_accuracy():
    pred = np.array([0, 2, 5])
    true = np.array([1, 4, 5])
    assert within_one_accuracy(pred, true) == pytest.approx(2 / 3)


def test_mape_metric():
    assert mape(np.array([110.0]), np.array([100.0])) == pytest.approx(10.0)
    assert mape(np.array([1.0, 1.0]), np.array([1.0, 2.0])) == pytest.approx(25.0)


def test_mape_epsilon_guards_zero_targets():
    value = mape(np.array([1.0]), np.array([0.0]))
    assert np.isfinite(value)
