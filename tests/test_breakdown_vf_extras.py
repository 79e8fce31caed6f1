"""V/f table resampling."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase
from repro.gpu.simulator import GPUSimulator
from repro.gpu.vf import interpolated_vf_table, titan_x_vf_table
from repro.core.policy import StaticPolicy


def _kernel(iterations=6):
    return KernelProfile("bd.compute", [compute_phase("c", 120_000, warps=16)],
                         iterations=iterations, jitter=0.05)


def test_interpolated_preserves_endpoints():
    base = titan_x_vf_table()
    for n in (3, 6, 12):
        table = interpolated_vf_table(base, n)
        assert table.num_levels == n
        assert table[0].frequency_hz == pytest.approx(base[0].frequency_hz)
        assert table[n - 1].frequency_hz == pytest.approx(
            base[5].frequency_hz)


def test_interpolated_voltages_round_up():
    base = titan_x_vf_table()
    table = interpolated_vf_table(base, 12)
    # Every voltage must be >= the voltage the base curve needs at that
    # frequency (silicon Vmin safety).
    for point in table.points:
        needed = None
        for base_point in base.points:
            if base_point.frequency_hz >= point.frequency_hz - 0.5e6:
                needed = base_point.voltage_v
                break
        assert needed is not None
        assert point.voltage_v >= needed - 1e-12


def test_interpolated_table_is_valid_arch_input(small_arch):
    """A resampled table must plug into the simulator unmodified."""
    table = interpolated_vf_table(titan_x_vf_table(), 3)
    arch = dataclasses.replace(small_arch, vf_table=table)
    simulator = GPUSimulator(arch, _kernel(iterations=2), seed=4)
    result = simulator.run(StaticPolicy(table.default_level),
                           keep_records=False)
    assert result.time_s > 0


def test_interpolated_validation():
    with pytest.raises(ConfigError):
        interpolated_vf_table(titan_x_vf_table(), 1)
