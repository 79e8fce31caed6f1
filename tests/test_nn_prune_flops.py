"""FLOPs accounting, pruning, quantization, serialization."""

import numpy as np
import pytest

from repro.errors import CompressionError, ModelError
from repro.nn.flops import layer_flops, macs, model_flops
from repro.nn.mlp import MLP
from repro.nn.prune import magnitude_prune, neuron_prune, prune_model
from repro.nn.quant import FixedPointFormat, choose_format, quantize_model
from repro.nn.serialize import (load_model, model_from_arrays,
                                model_to_arrays, save_model)


def _mlp(sizes=(6, 20, 20, 6), seed=0):
    return MLP(list(sizes), rng=np.random.default_rng(seed))


def _all_weights(model):
    return np.concatenate([(layer.weights * layer.mask).ravel()
                           for layer in model.layers])


# --------------------------------------------------------------------------
# FLOPs
# --------------------------------------------------------------------------

def test_layer_flops_formula():
    model = _mlp((6, 20, 6))
    layer = model.layers[0]
    assert layer_flops(layer) == 2 * 6 * 20 + 2 * 20


def test_model_flops_sums_layers():
    model = _mlp((6, 20, 6))
    assert model_flops(model) == sum(layer_flops(l) for l in model.layers)


def test_paper_scale_base_architecture_flops():
    """The 5+4 x 20 base pair must land in the paper's ~7k FLOPs range."""
    decision = _mlp((6, 20, 20, 20, 20, 20, 6))
    calibrator = _mlp((7, 20, 20, 20, 20, 1))
    total = model_flops(decision) + model_flops(calibrator)
    assert 6000 < total < 9000


def test_sparse_flops_drop_after_masking():
    model = _mlp()
    dense = model_flops(model, sparse=True)
    model.layers[0].mask[:, :10] = 0.0
    assert model_flops(model, sparse=True) < dense
    assert model_flops(model, sparse=False) == model_flops(model)


def test_macs_half_of_weight_flops():
    model = _mlp((6, 20, 6))
    assert macs(model) == 6 * 20 + 20 * 6


# --------------------------------------------------------------------------
# Pruning
# --------------------------------------------------------------------------

def test_magnitude_prune_fraction():
    model = _mlp()
    total = sum(l.weights.size for l in model.layers)
    pruned = magnitude_prune(model, 0.6)
    assert pruned == pytest.approx(0.6 * total, rel=0.05)
    assert model.sparsity == pytest.approx(0.6, abs=0.05)


def test_magnitude_prune_removes_smallest():
    model = _mlp((4, 4, 2))
    flat_before = np.abs(_all_weights(model))
    flat_before = flat_before[flat_before > 0]
    magnitude_prune(model, 0.5)
    surviving = np.abs(_all_weights(model))
    surviving = surviving[surviving > 0]
    assert surviving.min() >= np.quantile(flat_before, 0.5) - 1e-12


def test_magnitude_prune_zero_fraction_noop():
    model = _mlp()
    assert magnitude_prune(model, 0.0) == 0
    assert model.sparsity == 0.0


def test_magnitude_prune_validation():
    with pytest.raises(CompressionError):
        magnitude_prune(_mlp(), 1.0)
    with pytest.raises(CompressionError):
        magnitude_prune(_mlp(), -0.1)


def test_neuron_prune_removes_mostly_zero_neurons():
    model = _mlp((6, 20, 20, 6))
    # Fully mask the incoming weights of neurons 0-4 of the first layer.
    model.layers[0].mask[:, :5] = 0.0
    model.layers[0].apply_mask()
    removed = neuron_prune(model, 0.9)
    assert removed == 5
    assert model.layer_sizes == [6, 15, 20, 6]


def test_neuron_prune_keeps_at_least_one():
    model = _mlp((6, 4, 6))
    model.layers[0].mask[:] = 0.0
    model.layers[0].apply_mask()
    neuron_prune(model, 0.5)
    assert model.layer_sizes[1] >= 1


def test_neuron_prune_validation():
    with pytest.raises(CompressionError):
        neuron_prune(_mlp(), 0.0)
    with pytest.raises(CompressionError):
        neuron_prune(_mlp(), 1.5)


def test_prune_model_sparsifies_in_place():
    model = _mlp()
    prune_model(model, 0.6, 0.9)
    assert model_flops(model, sparse=True) < model_flops(model, sparse=False)
    assert model.sparsity > 0.4


def test_pruned_model_still_runs():
    model = _mlp()
    prune_model(model, 0.7, 0.8)
    out = model.forward(np.ones((3, 6)))
    assert out.shape[0] == 3
    assert np.isfinite(out).all()


# --------------------------------------------------------------------------
# Quantization
# --------------------------------------------------------------------------

def test_fixed_point_format_bounds():
    fmt = FixedPointFormat(8, 4)
    assert fmt.scale == pytest.approx(1 / 16)
    assert fmt.max_value == pytest.approx(127 / 16)
    assert fmt.quantize(np.array([100.0]))[0] == pytest.approx(fmt.max_value)
    assert fmt.quantize(np.array([-100.0]))[0] == pytest.approx(fmt.min_value)


def test_fixed_point_validation():
    with pytest.raises(ModelError):
        FixedPointFormat(1, 0)
    with pytest.raises(ModelError):
        FixedPointFormat(8, 8)


def test_choose_format_covers_range():
    values = np.array([-3.7, 2.9])
    fmt = choose_format(values, 16)
    assert fmt.max_value >= 3.7
    assert fmt.quantize(values)[0] == pytest.approx(-3.7, abs=fmt.scale)


def test_quantize_model_error_shrinks_with_bits():
    model = _mlp()
    _, report8 = quantize_model(model, total_bits=8)
    _, report16 = quantize_model(model, total_bits=16)
    assert report16.max_weight_error < report8.max_weight_error


def test_quantized_model_output_close():
    model = _mlp()
    x = np.random.default_rng(1).normal(size=(10, 6))
    quantized, _ = quantize_model(model, total_bits=16)
    assert np.allclose(model.forward(x), quantized.forward(x), atol=1e-2)


def test_quantize_preserves_masks():
    model = _mlp()
    magnitude_prune(model, 0.5)
    quantized, _ = quantize_model(model, total_bits=8)
    assert quantized.sparsity == pytest.approx(model.sparsity)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def test_round_trip_through_arrays():
    model = _mlp()
    prune_model(model, 0.3, 0.95)
    restored = model_from_arrays(model_to_arrays(model))
    x = np.random.default_rng(2).normal(size=(5, 6))
    assert np.allclose(model.forward(x), restored.forward(x))
    assert restored.layer_sizes == model.layer_sizes


def test_round_trip_through_file(tmp_path):
    model = _mlp()
    path = tmp_path / "model.npz"
    save_model(model, path)
    restored = load_model(path)
    x = np.random.default_rng(3).normal(size=(4, 6))
    assert np.allclose(model.forward(x), restored.forward(x))


def test_load_missing_file_rejected(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "nope.npz")


def test_malformed_arrays_rejected():
    with pytest.raises(ModelError):
        model_from_arrays({})
    arrays = model_to_arrays(_mlp((3, 4, 2)))
    del arrays["w1"]
    with pytest.raises(ModelError):
        model_from_arrays(arrays)
