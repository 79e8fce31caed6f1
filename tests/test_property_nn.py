"""Property-based tests: NN framework invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.flops import model_flops
from repro.nn.losses import softmax
from repro.nn.mlp import MLP
from repro.nn.prune import magnitude_prune, neuron_prune
from repro.nn.quant import choose_format
from repro.nn.serialize import model_from_arrays, model_to_arrays


@st.composite
def mlp_shapes(draw):
    depth = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 24)) for _ in range(depth + 2)]
    return sizes


@given(st.lists(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=8),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_always_distributions(rows):
    probs = softmax(np.array(rows))
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


@given(mlp_shapes(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_forward_output_shape_and_finiteness(sizes, seed):
    model = MLP(sizes, rng=np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).normal(size=(5, sizes[0]))
    out = model.forward(x)
    assert out.shape == (5, sizes[-1])
    assert np.isfinite(out).all()


@given(mlp_shapes(), st.floats(0.0, 0.95), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_magnitude_prune_achieves_requested_sparsity(sizes, fraction, seed):
    model = MLP(sizes, rng=np.random.default_rng(seed))
    magnitude_prune(model, fraction)
    total = sum(layer.weights.size for layer in model.layers)
    # Quantile ties can over/under-shoot slightly on tiny models.
    assert model.sparsity >= fraction - 2.0 / total - 0.05
    assert np.isfinite(model.forward(np.zeros((1, sizes[0])))).all()


@given(mlp_shapes(), st.floats(0.05, 1.0), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_neuron_prune_never_empties_a_layer(sizes, threshold, seed):
    model = MLP(sizes, rng=np.random.default_rng(seed))
    magnitude_prune(model, 0.9)
    neuron_prune(model, threshold)
    assert all(width >= 1 for width in model.layer_sizes)
    out = model.forward(np.ones((2, sizes[0])))
    assert out.shape == (2, sizes[-1])


@given(mlp_shapes(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sparse_flops_never_exceed_dense(sizes, seed):
    model = MLP(sizes, rng=np.random.default_rng(seed))
    magnitude_prune(model, 0.5)
    assert model_flops(model, sparse=True) <= model_flops(model, sparse=False)


@given(mlp_shapes(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_serialize_round_trip_preserves_function(sizes, seed):
    model = MLP(sizes, rng=np.random.default_rng(seed))
    magnitude_prune(model, 0.3)
    restored = model_from_arrays(model_to_arrays(model))
    x = np.random.default_rng(seed + 2).normal(size=(4, sizes[0]))
    assert np.allclose(model.forward(x), restored.forward(x))


@given(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=50),
       st.integers(4, 24))
@settings(max_examples=100, deadline=None)
def test_quantization_error_bounded_by_half_lsb(values, bits):
    array = np.array(values)
    fmt = choose_format(array, bits)
    quantized = fmt.quantize(array)
    in_range = (array >= fmt.min_value) & (array <= fmt.max_value)
    error = np.abs(quantized - array)[in_range]
    assert np.all(error <= fmt.scale / 2 + 1e-12)


@given(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=50),
       st.integers(2, 24))
@settings(max_examples=100, deadline=None)
def test_quantization_always_saturates_inside_format(values, bits):
    array = np.array(values)
    fmt = choose_format(array, bits)
    quantized = fmt.quantize(array)
    assert np.all(quantized <= fmt.max_value + 1e-12)
    assert np.all(quantized >= fmt.min_value - 1e-12)
