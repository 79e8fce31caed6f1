"""Energy breakdown accounting and V/f table resampling."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu.arch import small_test_config
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.gpu.vf import interpolated_vf_table, titan_x_vf_table
from repro.power.breakdown import (EnergyBreakdown, breakdown_for_epoch,
                                   run_with_breakdown)
from repro.power.model import PowerModel
from repro.core.policy import StaticPolicy
from repro.units import us


def _kernel(kind="compute", iterations=6):
    phase = (memory_phase("m", 120_000, warps=48, l1_miss=0.9, l2_miss=0.9)
             if kind == "memory" else compute_phase("c", 120_000, warps=16))
    return KernelProfile(f"bd.{kind}", [phase], iterations=iterations,
                         jitter=0.05)


# ---------------------------------------------------------------------------
# EnergyBreakdown container
# ---------------------------------------------------------------------------

def test_total_sums_components():
    breakdown = EnergyBreakdown(instruction_j=1.0, clock_j=2.0,
                                cluster_leakage_j=3.0, uncore_static_j=4.0,
                                dram_j=5.0, l2_j=6.0)
    assert breakdown.total_j == pytest.approx(21.0)
    assert breakdown.fraction("dram") == pytest.approx(5.0 / 21.0)
    assert breakdown.dvfs_scalable_fraction == pytest.approx(6.0 / 21.0)


def test_unknown_component_rejected():
    with pytest.raises(ConfigError):
        EnergyBreakdown().fraction("magic")


def test_empty_breakdown_fractions_zero():
    assert EnergyBreakdown().fraction("dram") == 0.0
    assert EnergyBreakdown().dvfs_scalable_fraction == 0.0


def test_add_accumulates():
    a = EnergyBreakdown(instruction_j=1.0)
    b = EnergyBreakdown(instruction_j=2.0, dram_j=1.0)
    a.add(b)
    assert a.instruction_j == pytest.approx(3.0)
    assert a.dram_j == pytest.approx(1.0)


def test_render():
    text = EnergyBreakdown(instruction_j=1.0).render()
    assert "instruction" in text and "DVFS-scalable" in text


# ---------------------------------------------------------------------------
# Epoch / run breakdown
# ---------------------------------------------------------------------------

def test_epoch_breakdown_matches_power_model(small_arch):
    """Component sum must equal the PowerModel's accounted energy."""
    simulator = GPUSimulator(small_arch, _kernel(), seed=1)
    model = simulator.power_model
    activities = [cluster.run_epoch(us(10)) for cluster in simulator.clusters]
    breakdown = breakdown_for_epoch(activities, model, us(10))
    reference = sum(model.cluster_power(a).energy_j for a in activities)
    matrix = np.stack([a.as_vector() for a in activities])
    reference += model.uncore_power(matrix, us(10)).energy_j
    assert breakdown.total_j == pytest.approx(reference, rel=1e-9)


def test_run_with_breakdown_closes(small_arch):
    simulator = GPUSimulator(small_arch, _kernel(iterations=4), seed=2)
    result, breakdown = run_with_breakdown(simulator,
                                           StaticPolicy(5))
    assert simulator.finished
    assert breakdown.total_j == pytest.approx(result.energy_j, rel=1e-9)
    assert result.time_s > 0


def test_memory_kernel_has_larger_invariant_floor(small_arch):
    """A memory-bound kernel burns proportionally more traffic energy,
    so its DVFS-scalable share is smaller — quantifying why its EDP
    gain is bounded."""
    shares = {}
    for kind in ("compute", "memory"):
        simulator = GPUSimulator(small_arch, _kernel(kind, iterations=4),
                                 seed=3)
        _, breakdown = run_with_breakdown(simulator, StaticPolicy(5))
        shares[kind] = breakdown.dvfs_scalable_fraction
    assert shares["memory"] < shares["compute"]


def test_breakdown_validation(small_arch):
    with pytest.raises(ConfigError):
        breakdown_for_epoch([], PowerModel(), 0.0)


# ---------------------------------------------------------------------------
# V/f table resampling
# ---------------------------------------------------------------------------

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
