"""Interval throughput model — the physics of the reproduction."""

import pytest

from repro.errors import SimulationError
from repro.gpu.arch import titan_x_config
from repro.gpu.interval_model import (frequency_sensitivity, solve_throughput)
from repro.gpu.phases import compute_phase, memory_phase
from repro.units import mhz

ARCH = titan_x_config()
F_MAX = mhz(1165)
F_MIN = mhz(683)


def test_ipc_positive_and_bounded():
    phase = compute_phase("c", 10_000)
    sol = solve_throughput(ARCH, phase, F_MAX)
    assert 0 < sol.ipc <= ARCH.issue_width


def test_more_warps_means_more_throughput():
    lo = compute_phase("c", 10_000, warps=4)
    hi = compute_phase("c", 10_000, warps=32)
    assert (solve_throughput(ARCH, lo, F_MAX).ipc
            < solve_throughput(ARCH, hi, F_MAX).ipc)


def test_compute_bound_scales_with_frequency():
    """A compute phase's wall-clock time should shrink ~linearly with f."""
    phase = compute_phase("c", 10_000, warps=16)  # few warps: not BW-bound
    slowdown = frequency_sensitivity(ARCH, phase, F_MAX, F_MIN)
    ideal = F_MAX / F_MIN  # 1.706
    assert slowdown == pytest.approx(ideal, rel=0.08)


def test_memory_bound_is_frequency_insensitive():
    phase = memory_phase("m", 10_000, l1_miss=0.8, l2_miss=0.8)
    slowdown = frequency_sensitivity(ARCH, phase, F_MAX, F_MIN)
    assert slowdown < 1.12  # far below the 1.71 compute-bound limit


def test_sensitivity_ordering_compute_vs_memory():
    cmp_ = compute_phase("c", 10_000, warps=16)
    mem = memory_phase("m", 10_000)
    assert (frequency_sensitivity(ARCH, cmp_, F_MAX, F_MIN)
            > frequency_sensitivity(ARCH, mem, F_MAX, F_MIN))


def test_same_frequency_sensitivity_is_one():
    phase = memory_phase("m", 10_000)
    assert frequency_sensitivity(ARCH, phase, F_MAX, F_MAX) == pytest.approx(1.0)


def test_memory_phase_has_memory_stalls_dominant():
    phase = memory_phase("m", 10_000)
    sol = solve_throughput(ARCH, phase, F_MAX)
    assert sol.stall_mem_load + sol.stall_mem_other > sol.stall_control
    assert sol.stall_mem_load > sol.stall_mem_other


def test_stall_slots_account_for_issue_budget():
    phase = memory_phase("m", 10_000)
    sol = solve_throughput(ARCH, phase, F_MAX)
    slots_per_inst = ARCH.issue_width * sol.cycles_per_instruction
    stalls = (sol.stall_mem_load + sol.stall_mem_other + sol.stall_control
              + sol.stall_sync + sol.stall_data + sol.stall_idle)
    assert 1.0 + stalls == pytest.approx(slots_per_inst, rel=1e-6)


def test_bandwidth_cap_engages_on_streaming_phase():
    phase = memory_phase("m", 10_000, warps=48, l1_miss=0.9, l2_miss=0.9)
    sol = solve_throughput(ARCH, phase, F_MAX)
    assert sol.bandwidth_limited
    assert sol.bandwidth_utilization == pytest.approx(1.0, abs=1e-6)


def test_bandwidth_cap_relaxing_at_low_frequency():
    """At lower core frequency the same phase demands less bandwidth."""
    phase = memory_phase("m", 10_000, warps=48, l1_miss=0.9, l2_miss=0.9)
    hi = solve_throughput(ARCH, phase, F_MAX)
    lo = solve_throughput(ARCH, phase, F_MIN)
    assert lo.ipc > hi.ipc  # per-cycle throughput improves as f drops


def test_time_for_instructions_matches_ipc():
    phase = compute_phase("c", 10_000)
    sol = solve_throughput(ARCH, phase, F_MAX)
    t = sol.time_for_instructions(10_000)
    assert t == pytest.approx(10_000 / sol.ipc / F_MAX)


def test_instructions_in_time_is_inverse():
    phase = compute_phase("c", 10_000)
    sol = solve_throughput(ARCH, phase, F_MAX)
    t = sol.time_for_instructions(5_000)
    assert t * F_MAX * sol.ipc == pytest.approx(5_000)


def test_jitter_multipliers_shift_throughput():
    phase = compute_phase("c", 10_000, warps=8)
    base = solve_throughput(ARCH, phase, F_MAX)
    fewer_warps = solve_throughput(ARCH, phase, F_MAX, warp_multiplier=0.5)
    assert fewer_warps.ipc < base.ipc


def test_higher_miss_rate_lowers_throughput():
    phase = memory_phase("m", 10_000, warps=8, l1_miss=0.4)
    base = solve_throughput(ARCH, phase, F_MAX)
    worse = solve_throughput(ARCH, phase, F_MAX, miss_multiplier=1.5)
    assert worse.ipc < base.ipc
    assert worse.mem_latency_cycles > base.mem_latency_cycles


def test_invalid_inputs_rejected():
    phase = compute_phase("c", 10_000)
    with pytest.raises(SimulationError):
        solve_throughput(ARCH, phase, 0.0)
    with pytest.raises(SimulationError):
        solve_throughput(ARCH, phase, F_MAX, warp_multiplier=0.0)
    sol = solve_throughput(ARCH, phase, F_MAX)
    with pytest.raises(SimulationError):
        sol.time_for_instructions(-1)
