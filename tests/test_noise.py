"""Workload-position-indexed AR(1) noise."""

import pytest

from repro.errors import SimulationError
from repro.gpu.noise import WorkloadNoise
from repro.rng import stream


def test_workload_noise_is_position_deterministic():
    a = WorkloadNoise(stream("n", 1), sigma=0.1)
    b = WorkloadNoise(stream("n", 1), sigma=0.1)
    # Query in different orders; values must agree chunk-by-chunk.
    vals_a = [a.multipliers(k) for k in (5, 0, 3, 5)]
    vals_b = [b.multipliers(k) for k in (0, 5, 5, 3)]
    assert vals_a[0] == vals_b[1] == vals_b[2] == vals_a[3]
    assert vals_a[1] == vals_b[0]


def test_workload_noise_zero_sigma():
    noise = WorkloadNoise(stream("n", 1), sigma=0.0)
    assert noise.multipliers(100) == (1.0, 1.0, 1.0)


def test_workload_noise_multipliers_positive():
    noise = WorkloadNoise(stream("n", 2), sigma=0.2)
    for k in range(200):
        for m in noise.multipliers(k):
            assert m > 0


def test_workload_noise_negative_chunk_rejected():
    noise = WorkloadNoise(stream("n", 1), sigma=0.1)
    with pytest.raises(SimulationError):
        noise.multipliers(-1)


def test_workload_noise_tracks_are_independent():
    noise = WorkloadNoise(stream("n", 3), sigma=0.2)
    triples = [noise.multipliers(k) for k in range(50)]
    warp = [t[0] for t in triples]
    miss = [t[1] for t in triples]
    assert warp != miss
