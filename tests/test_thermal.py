"""RC thermal model with leakage feedback."""

import math

import pytest

from repro.errors import ConfigError
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase
from repro.gpu.simulator import GPUSimulator
from repro.power.thermal import (MAX_TEMPERATURE_C, REFERENCE_C,
                                 ThermalConfig, ThermalNode, ThermalTracker,
                                 run_with_thermal)
from repro.core.policy import StaticPolicy


def test_config_validation():
    with pytest.raises(ConfigError):
        ThermalConfig(resistance_c_per_w=0)
    with pytest.raises(ConfigError):
        ThermalConfig(ambient_c=MAX_TEMPERATURE_C)


def test_node_starts_at_ambient():
    node = ThermalNode()
    assert node.temperature_c == pytest.approx(ThermalConfig().ambient_c)


def test_steady_state_formula():
    node = ThermalNode()
    assert node.steady_state_c(10.0) == pytest.approx(45.0 + 10.0 * 4.0)
    with pytest.raises(ConfigError):
        node.steady_state_c(-1.0)


def test_step_converges_to_steady_state():
    node = ThermalNode()
    for _ in range(1000):
        node.step(5.0, dt_s=1e-3)
    assert node.temperature_c == pytest.approx(node.steady_state_c(5.0),
                                               rel=1e-3)


def test_step_exact_exponential():
    config = ThermalConfig()
    node = ThermalNode(config)
    target = node.steady_state_c(8.0)
    start = node.temperature_c
    dt = config.time_constant_s  # one time constant
    node.step(8.0, dt)
    expected = target + (start - target) * math.exp(-1.0)
    assert node.temperature_c == pytest.approx(expected)


def test_long_step_is_stable():
    node = ThermalNode()
    node.step(20.0, dt_s=100.0)  # >> time constant
    assert node.temperature_c == pytest.approx(node.steady_state_c(20.0))


def test_temperature_clamped_at_max():
    node = ThermalNode()
    node.step(1000.0, dt_s=10.0)
    assert node.temperature_c == pytest.approx(MAX_TEMPERATURE_C)


def test_peak_tracking():
    node = ThermalNode()
    node.step(20.0, dt_s=0.01)
    hot = node.temperature_c
    node.step(0.0, dt_s=10.0)  # cool back down
    assert node.peak_c == pytest.approx(hot)
    assert node.temperature_c < hot


def test_leakage_multiplier_grows_with_temperature():
    node = ThermalNode()
    cold = node.leakage_multiplier()
    node.step(30.0, dt_s=10.0)
    assert node.leakage_multiplier() > cold


def test_leakage_multiplier_is_one_at_reference():
    config = ThermalConfig()
    node = ThermalNode(config)
    node.temperature_c = REFERENCE_C
    assert node.leakage_multiplier() == pytest.approx(1.0)


def test_tracker_validation():
    with pytest.raises(ConfigError):
        ThermalTracker(0)
    tracker = ThermalTracker(2)
    with pytest.raises(ConfigError):
        tracker.step_epoch([1.0], [0.1], 1e-5)
    with pytest.raises(ConfigError):
        tracker.step_epoch([1.0, -1.0], [0.1, 0.1], 1e-5)


def test_tracker_extra_energy_nonnegative_when_hot():
    tracker = ThermalTracker(2)
    total = 0.0
    for _ in range(2000):
        total += tracker.step_epoch([12.0, 12.0], [1.0, 1.0], 1e-5)
    assert tracker.peak_temperature_c > ThermalConfig().ambient_c + 10
    assert total > 0.0


def test_run_with_thermal_integrates(small_arch):
    kernel = KernelProfile(
        "th.compute", [compute_phase("c", 120_000, warps=24)],
        iterations=10, jitter=0.05)
    plain = GPUSimulator(small_arch, kernel, seed=3).run(
        StaticPolicy(5), keep_records=False)
    thermal_sim = GPUSimulator(small_arch, kernel, seed=3)
    result, tracker = run_with_thermal(thermal_sim, StaticPolicy(5))
    # Same work, same time; the leakage correction shifts energy by a
    # bounded amount (negative while the die is below the 60 C
    # reference the base power model assumes, positive above it).
    assert result.time_s == pytest.approx(plain.time_s)
    assert result.energy_j == pytest.approx(plain.energy_j, rel=0.10)
    assert result.energy_j != pytest.approx(plain.energy_j, rel=1e-9)
    assert tracker.peak_temperature_c > ThermalConfig().ambient_c


def test_thermal_lower_vf_runs_cooler(small_arch):
    kernel = KernelProfile(
        "th.compute2", [compute_phase("c", 120_000, warps=24)],
        iterations=10, jitter=0.05)
    _, hot = run_with_thermal(GPUSimulator(small_arch, kernel, seed=3),
                              StaticPolicy(5))
    _, cool = run_with_thermal(GPUSimulator(small_arch, kernel, seed=3),
                               StaticPolicy(0))
    assert cool.peak_temperature_c < hot.peak_temperature_c


def test_thermal_run_reports_tenant_mix(small_arch):
    kernels = [KernelProfile(f"th.mix{i}", [compute_phase("c", 40_000)],
                             iterations=2) for i in range(2)]
    simulator = GPUSimulator(small_arch, kernels, seed=3)
    result, _ = run_with_thermal(simulator, StaticPolicy(5))
    assert result.kernel_name == simulator.workload_name == "th.mix0+th.mix1"
