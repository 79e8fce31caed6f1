"""Targeted edge cases across subsystems."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.gpu.arch import small_test_config, titan_x_config
from repro.gpu.counters import CounterSet
from repro.gpu.interval_model import solve_throughput
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import Phase, compute_phase, make_mix
from repro.gpu.simulator import GPUSimulator
from repro.power.model import PowerModel
from repro.core.policy import StaticPolicy
from repro.units import us


def test_power_model_scaled_for_validation():
    with pytest.raises(ConfigError):
        PowerModel.scaled_for(0)
    scaled = PowerModel.scaled_for(12)
    assert scaled.config.uncore_static_w == pytest.approx(28.0 * 12 / 24)


def test_single_cluster_gpu(small_arch):
    import dataclasses
    arch = dataclasses.replace(small_arch, num_clusters=1)
    kernel = KernelProfile("edge.k", [compute_phase("c", 100_000, warps=16)],
                           iterations=2)
    result = GPUSimulator(arch, kernel, seed=1).run(StaticPolicy(5),
                                                    keep_records=True)
    assert result.time_s > 0
    assert all(len(r.levels) == 1 for r in result.records)


def test_kernel_shorter_than_one_epoch(small_arch):
    """A kernel that drains inside its first epoch must finish cleanly
    with the truncated final-epoch accounting."""
    kernel = KernelProfile("edge.tiny",
                           [compute_phase("c", 2_000, warps=16)],
                           iterations=1)
    simulator = GPUSimulator(small_arch, kernel, seed=1)
    result = simulator.run(StaticPolicy(5), keep_records=True)
    assert result.epochs == 1
    assert result.records[0].all_finished
    assert 0 < result.time_s < us(10)


def test_zero_memory_phase_runs():
    """A phase with no memory instructions at all must still solve."""
    mix = make_mix(fp32=0.7, branch=0.1, sync=0.02)
    phase = Phase(name="nomem", instructions=10_000, mix=mix,
                  cpi_exec=1.5, active_warps=32)
    arch = titan_x_config()
    solution = solve_throughput(arch, phase, arch.default_frequency_hz)
    assert solution.ipc > 0
    assert solution.stall_mem_load + solution.stall_mem_other >= 0
    assert solution.bandwidth_utilization == 0.0


def test_one_warp_phase():
    phase = compute_phase("c", 1_000, warps=1)
    arch = titan_x_config()
    solution = solve_throughput(arch, phase, arch.default_frequency_hz)
    assert 0 < solution.ipc < 1.0  # single warp cannot fill the issue


def test_counterset_average_single():
    counters = CounterSet({"ipc": 2.0})
    assert CounterSet.average([counters])["ipc"] == pytest.approx(2.0)


def test_simulator_epoch_index_advances(small_arch):
    kernel = KernelProfile("edge.idx",
                           [compute_phase("c", 200_000, warps=16)],
                           iterations=3)
    simulator = GPUSimulator(small_arch, kernel, seed=2)
    first = simulator.step_epoch()
    second = simulator.step_epoch()
    assert (first.index, second.index) == (0, 1)
    assert second.start_time_s == pytest.approx(first.start_time_s
                                                + first.duration_s)


def test_negative_epoch_energy_rejected():
    from repro.power.energy import EnergyAccount
    account = EnergyAccount()
    with pytest.raises(SimulationError):
        account.add(1.0, -0.1)


def test_epoch_record_end_time(small_arch):
    kernel = KernelProfile("edge.t", [compute_phase("c", 200_000, warps=16)],
                           iterations=2)
    simulator = GPUSimulator(small_arch, kernel, seed=4, epoch_s=us(5))
    record = simulator.step_epoch()
    assert record.duration_s == pytest.approx(us(5))
    assert record.start_time_s + record.duration_s == pytest.approx(us(5))
