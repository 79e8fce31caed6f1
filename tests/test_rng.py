"""Deterministic named RNG streams."""

from repro.rng import DEFAULT_SEED, StreamFactory, stream


def test_same_name_same_stream():
    a = stream("alpha", seed=42)
    b = stream("alpha", seed=42)
    assert a.random(5).tolist() == b.random(5).tolist()


def test_different_names_differ():
    a = stream("alpha", seed=42)
    b = stream("beta", seed=42)
    assert a.random(5).tolist() != b.random(5).tolist()


def test_different_seeds_differ():
    a = stream("alpha", seed=1)
    b = stream("alpha", seed=2)
    assert a.random(5).tolist() != b.random(5).tolist()


def test_factory_get_is_reproducible():
    factory = StreamFactory(seed=7)
    first = factory.get("jitter").random(3).tolist()
    second = factory.get("jitter").random(3).tolist()
    assert first == second


def test_factory_default_seed():
    assert StreamFactory().seed == DEFAULT_SEED
