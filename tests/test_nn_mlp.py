"""MLP structure, forward/backward, neuron removal."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.losses import MeanSquaredError
from repro.nn.mlp import MLP


def _mlp(sizes=(4, 8, 8, 3), seed=0):
    return MLP(list(sizes), rng=np.random.default_rng(seed))


def test_layer_sizes_round_trip():
    model = _mlp((4, 8, 8, 3))
    assert model.layer_sizes == [4, 8, 8, 3]
    assert model.input_size == 4
    assert model.output_size == 3


def test_hidden_relu_output_linear():
    model = _mlp()
    assert all(layer.activation == "relu" for layer in model.layers[:-1])
    assert model.layers[-1].activation == "linear"


def test_forward_shapes():
    model = _mlp()
    assert model.forward(np.ones((7, 4))).shape == (7, 3)
    assert model.forward(np.ones(4)).shape == (1, 3)


def test_too_few_sizes_rejected():
    with pytest.raises(ModelError):
        MLP([5])


def test_nonpositive_size_rejected():
    with pytest.raises(ModelError):
        MLP([4, 0, 3])


def test_num_parameters():
    model = _mlp((4, 8, 3))
    assert model.num_parameters == (4 * 8 + 8) + (8 * 3 + 3)


def test_predict_class_range():
    model = _mlp()
    preds = model.predict_class(np.random.default_rng(1).normal(size=(20, 4)))
    assert preds.shape == (20,)
    assert preds.min() >= 0 and preds.max() < 3


def test_predict_scalar_requires_single_output():
    with pytest.raises(ModelError):
        _mlp((4, 8, 3)).predict_scalar(np.ones((2, 4)))
    scalar_model = _mlp((4, 8, 1))
    assert scalar_model.predict_scalar(np.ones((2, 4))).shape == (2,)


def test_end_to_end_gradient_check():
    """Whole-network backprop vs finite differences through MSE."""
    rng = np.random.default_rng(7)
    model = _mlp((3, 5, 2), seed=7)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    loss_fn = MeanSquaredError()

    out = model.forward(x, train=True)
    _, grad = loss_fn(out, y)
    model.backward(grad)
    layer = model.layers[0]
    analytic = layer.grad_weights.copy()

    eps = 1e-6
    for i in range(3):
        for j in range(5):
            layer.weights[i, j] += eps
            plus, _ = loss_fn(model.forward(x), y)
            layer.weights[i, j] -= 2 * eps
            minus, _ = loss_fn(model.forward(x), y)
            layer.weights[i, j] += eps
            assert analytic[i, j] == pytest.approx(
                (plus - minus) / (2 * eps), abs=1e-5)


def test_clone_independent():
    model = _mlp()
    copy = model.clone()
    copy.layers[0].weights[:] = 0.0
    assert not np.all(model.layers[0].weights == 0.0)


def test_remove_hidden_neurons_keeps_function_of_others():
    model = _mlp((4, 8, 3))
    model.remove_hidden_neurons(0, [2, 5])
    assert model.layer_sizes == [4, 6, 3]
    out = model.forward(np.ones((2, 4)))
    assert out.shape == (2, 3)


def test_remove_output_layer_neurons_rejected():
    model = _mlp((4, 8, 3))
    with pytest.raises(ModelError):
        model.remove_hidden_neurons(1, [0])


def test_removing_dead_neuron_preserves_function():
    """A neuron with all-zero incoming and outgoing ties contributes
    nothing; removing it must not change the network function."""
    model = _mlp((4, 8, 3))
    x = np.random.default_rng(2).normal(size=(6, 4))
    model.layers[0].weights[:, 3] = 0.0
    model.layers[0].bias[3] = 0.0
    before = model.forward(x)
    model.remove_hidden_neurons(0, [3])
    after = model.forward(x)
    assert np.allclose(before, after)


def test_sparsity_property():
    model = _mlp((4, 8, 3))
    assert model.sparsity == 0.0
    model.layers[0].mask[:, 0] = 0.0
    assert model.sparsity > 0.0


