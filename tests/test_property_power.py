"""Property-based tests: power model and simulator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import small_test_config
from repro.gpu.cluster import ClusterState
from repro.gpu.noise import WorkloadNoise
from repro.gpu.quantum import run_epoch_batch
from repro.gpu.simulator import GPUSimulator
from repro.power.model import PowerModel
from repro.rng import stream
from repro.units import us
from repro.workloads.generator import random_kernel

ARCH = small_test_config(num_clusters=2)


def _power(seed, level):
    """``(dynamic_w, static_w, energy_j)`` of one random-kernel epoch."""
    kernel = random_kernel(np.random.default_rng(seed))
    cluster = ClusterState(ARCH, kernel,
                           WorkloadNoise(stream(f"p{seed}", seed),
                                         kernel.jitter))
    cluster.set_level(level)
    matrix = run_epoch_batch([cluster], us(10)).matrix
    voltage = ARCH.vf_table[level].voltage_v
    dynamic_w, static_w, energy_j = PowerModel().cluster_power_batch(
        matrix, np.array([us(10)]), np.array([voltage]))
    return dynamic_w[0], static_w[0], energy_j[0]


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_power_always_positive(seed, level):
    dynamic_w, static_w, energy_j = _power(seed, level)
    assert dynamic_w > 0  # idle clock still burns
    assert static_w > 0
    assert energy_j > 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_power_monotone_in_operating_point(seed):
    """Same workload epoch at a higher V/f point never uses less power."""
    powers = [sum(_power(seed, level)[:2]) for level in range(6)]
    # Allow tiny non-monotonicity from different work completed per
    # epoch, but the ends must order strictly.
    assert powers[5] > powers[0]


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_energy_accounting_closes(seed):
    """Sum of per-epoch energies equals the run's account."""
    kernel = random_kernel(np.random.default_rng(seed), max_iterations=2,
                           max_phases=2, max_instructions=120_000)
    simulator = GPUSimulator(ARCH, kernel, PowerModel(), seed=seed)
    simulator.set_all_levels(3)
    total = 0.0
    epochs = 0
    while not simulator.finished and epochs < 2000:
        record = simulator.step_epoch()
        total += record.energy_j
        epochs += 1
    assert simulator.finished
    assert total > 0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_snapshot_restore_identity_on_random_kernels(seed):
    kernel = random_kernel(np.random.default_rng(seed), max_iterations=4)
    simulator = GPUSimulator(ARCH, kernel, PowerModel(), seed=seed)
    simulator.step_epoch()
    if simulator.finished:
        return  # kernel fit inside the first epoch: nothing to replay
    snapshot = simulator.snapshot()
    first = simulator.step_epoch()
    simulator.restore(snapshot)
    second = simulator.step_epoch()
    assert first.instructions == pytest.approx(second.instructions)
    assert first.energy_j == pytest.approx(second.energy_j)


@given(st.integers(0, 10_000), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_mean_instructions_monotone_in_time(seed, level):
    kernel = random_kernel(np.random.default_rng(seed), max_iterations=4)
    simulator = GPUSimulator(ARCH, kernel, PowerModel(), seed=seed)
    simulator.set_all_levels(level)
    previous = 0.0
    for _ in range(10):
        if simulator.finished:
            break
        simulator.step_epoch()
        done = simulator.mean_instructions_done()
        assert done >= previous - 1e-9
        previous = done
