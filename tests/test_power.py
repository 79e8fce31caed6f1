"""McPAT-surrogate power model and energy accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.gpu.arch import titan_x_config
from repro.gpu.cluster import ClusterState
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import WorkloadNoise
from repro.gpu.phases import compute_phase, memory_phase
from repro.power.energy import EnergyAccount, performance_loss
from repro.power.model import PowerModel, PowerModelConfig
from repro.rng import stream
from repro.units import us

ARCH = titan_x_config()


def _activity(level=5, phase=None):
    kernel = KernelProfile(name="p.k", phases=[phase or compute_phase("c", 10 ** 8)])
    cluster = ClusterState(ARCH, kernel, WorkloadNoise(stream("pw", 1), 0.0))
    cluster.set_level(level)
    return cluster.run_epoch(us(10))


def _matrix(activities):
    return np.stack([a.as_vector() for a in activities])


def test_cluster_power_positive():
    power = PowerModel().cluster_power(_activity())
    assert power.dynamic_w > 0
    assert power.static_w > 0
    assert power.total_w == pytest.approx(power.dynamic_w + power.static_w)


def test_energy_consistent_with_power():
    activity = _activity()
    power = PowerModel().cluster_power(activity)
    assert power.energy_j == pytest.approx(power.total_w * activity.duration_s)


def test_lower_vf_uses_less_power():
    model = PowerModel()
    hi = model.cluster_power(_activity(level=5))
    lo = model.cluster_power(_activity(level=0))
    assert lo.dynamic_w < hi.dynamic_w
    assert lo.static_w < hi.static_w


def test_voltage_scaling_is_superlinear_for_leakage():
    model = PowerModel()
    # Same frequency-independent leakage formula: V^3 by default.
    hi = model.cluster_power(_activity(level=5)).static_w
    lo = model.cluster_power(_activity(level=0)).static_w
    assert hi / lo == pytest.approx(1.155 ** 3, rel=1e-6)


def test_memory_phase_burns_less_core_power_than_compute():
    model = PowerModel()
    cmp_ = model.cluster_power(_activity(phase=compute_phase("c", 10 ** 8)))
    mem = model.cluster_power(_activity(phase=memory_phase("m", 10 ** 8)))
    assert mem.dynamic_w < cmp_.dynamic_w


def test_gpu_envelope_under_reasonable_bound():
    """Full load at default V/f must land in a plausible Titan X envelope."""
    model = PowerModel()
    activities = [_activity(phase=compute_phase("c", 10 ** 8, warps=56))
                  for _ in range(ARCH.num_clusters)]
    cluster_w = sum(model.cluster_power(a).total_w for a in activities)
    uncore_w = model.uncore_power(_matrix(activities), us(10)).total_w
    total = cluster_w + uncore_w
    assert 120 < total < 400  # 250 W TDP class


def test_uncore_power_tracks_traffic():
    model = PowerModel()
    mem = [_activity(phase=memory_phase("m", 10 ** 8))] * 4
    cmp_ = [_activity(phase=compute_phase("c", 10 ** 8))] * 4
    assert (model.uncore_power(_matrix(mem), us(10)).dram_w
            > model.uncore_power(_matrix(cmp_), us(10)).dram_w)


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
    assert account.average_power_w == pytest.approx(3.0)
    assert account.edp == pytest.approx(3.0)
    assert account.ed2p == pytest.approx(3.0)


def test_energy_account_rejects_negative():
    with pytest.raises(SimulationError):
        EnergyAccount().add(-1.0, 0.1)


def test_normalized_metrics():
    base = EnergyAccount(energy_j=10.0, time_s=2.0)
    run = EnergyAccount(energy_j=8.0, time_s=2.2)
    assert run.normalized_edp(base) == pytest.approx((8.0 * 2.2) / 20.0)
    assert run.normalized_latency(base) == pytest.approx(1.1)
    assert run.normalized_energy(base) == pytest.approx(0.8)


def test_performance_loss():
    assert performance_loss(1.1, 1.0) == pytest.approx(0.1)
    assert performance_loss(0.9, 1.0) == pytest.approx(-0.1)
    with pytest.raises(SimulationError):
        performance_loss(1.0, 0.0)
