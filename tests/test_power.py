"""McPAT-surrogate power model and energy accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.gpu.arch import titan_x_config
from repro.gpu.cluster import ClusterState
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import WorkloadNoise
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.quantum import run_epoch_batch
from repro.power.energy import EnergyAccount
from repro.power.model import PowerModel, PowerModelConfig
from repro.rng import stream
from repro.units import us

ARCH = titan_x_config()


def _activity(level=5, phase=None):
    """One cluster epoch at ``level``: its activity vector and voltage."""
    kernel = KernelProfile(name="p.k", phases=[phase or compute_phase("c", 10 ** 8)])
    cluster = ClusterState(ARCH, kernel, WorkloadNoise(stream("pw", 1), 0.0))
    cluster.set_level(level)
    activity = run_epoch_batch([cluster], us(10)).matrix[0]
    return activity, ARCH.vf_table[level].voltage_v


def _matrix(activities):
    return np.stack([row for row, _ in activities])


def _power(*activities, model=None):
    """``(dynamic_w, static_w, energy_j)`` of 10 µs epochs, one per row."""
    voltages = np.array([voltage for _, voltage in activities])
    return (model or PowerModel()).cluster_power_batch(
        _matrix(activities), np.full(len(activities), us(10)), voltages)


def test_cluster_power_positive():
    dynamic_w, static_w, _ = _power(_activity())
    assert dynamic_w[0] > 0
    assert static_w[0] > 0


def test_energy_consistent_with_power():
    dynamic_w, static_w, energy_j = _power(_activity())
    assert energy_j[0] == pytest.approx((dynamic_w[0] + static_w[0]) * us(10))


def test_lower_vf_uses_less_power():
    dynamic_w, static_w, _ = _power(_activity(level=5), _activity(level=0))
    assert dynamic_w[1] < dynamic_w[0]
    assert static_w[1] < static_w[0]


def test_voltage_scaling_is_superlinear_for_leakage():
    # Same frequency-independent leakage formula: V^3 by default.
    _, static_w, _ = _power(_activity(level=5), _activity(level=0))
    assert static_w[0] / static_w[1] == pytest.approx(1.155 ** 3, rel=1e-6)


def test_memory_phase_burns_less_core_power_than_compute():
    dynamic_w, _, _ = _power(_activity(phase=compute_phase("c", 10 ** 8)),
                             _activity(phase=memory_phase("m", 10 ** 8)))
    assert dynamic_w[1] < dynamic_w[0]


def test_gpu_envelope_under_reasonable_bound():
    """Full load at default V/f must land in a plausible Titan X envelope."""
    model = PowerModel()
    activities = [_activity(phase=compute_phase("c", 10 ** 8, warps=56))
                  for _ in range(ARCH.num_clusters)]
    dynamic_w, static_w, _ = _power(*activities, model=model)
    cluster_w = float((dynamic_w + static_w).sum())
    uncore = model.uncore_power(_matrix(activities), us(10))
    uncore_w = uncore.static_w + uncore.dram_w + uncore.l2_w
    total = cluster_w + uncore_w
    assert 120 < total < 400  # 250 W TDP class


def test_uncore_power_tracks_traffic():
    model = PowerModel()
    mem = [_activity(phase=memory_phase("m", 10 ** 8))] * 4
    cmp_ = [_activity(phase=compute_phase("c", 10 ** 8))] * 4
    assert (model.uncore_power(_matrix(mem), us(10)).dram_w
            > model.uncore_power(_matrix(cmp_), us(10)).dram_w)


def test_power_rejects_nonpositive_duration():
    model = PowerModel()
    activity, voltage = _activity()
    matrix = np.stack([activity, activity])
    for bad in (0.0, -us(10)):
        with pytest.raises(ConfigError):
            model.cluster_power_batch(matrix, np.array([us(10), bad]),
                                      np.array([voltage, voltage]))
        with pytest.raises(ConfigError):
            model.uncore_power(matrix, bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        PowerModelConfig(cluster_leakage_w=-1)
    with pytest.raises(ConfigError):
        PowerModelConfig(leakage_voltage_exponent=0.5)
    with pytest.raises(ConfigError):
        PowerModelConfig(epi_table={"fp32": -1.0})


def test_energy_account_accumulates():
    account = EnergyAccount()
    account.add(1.0, 0.5)
    account.add(2.0, 0.5)
    assert account.energy_j == pytest.approx(3.0)
    assert account.time_s == pytest.approx(1.0)
    assert account.edp == pytest.approx(3.0)


def test_energy_account_rejects_negative():
    with pytest.raises(SimulationError):
        EnergyAccount().add(-1.0, 0.1)


def test_normalized_metrics():
    base = EnergyAccount(energy_j=10.0, time_s=2.0)
    run = EnergyAccount(energy_j=8.0, time_s=2.2)
    assert run.normalized_edp(base) == pytest.approx((8.0 * 2.2) / 20.0)
    assert run.normalized_latency(base) == pytest.approx(1.1)
