"""Cross-substrate policy runner (detailed per-cycle model)."""

import pytest

from repro.gpu.detailed.runner import DetailedClusterRunner
from repro.gpu.detailed.sm import DetailedSM
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.core.policy import StaticPolicy


def _mem_kernel(instructions=60_000):
    return KernelProfile(
        "dr.mem", [memory_phase("m", instructions, warps=48, l1_miss=0.9,
                                l2_miss=0.9)], iterations=1)


def _cmp_kernel(instructions=60_000):
    return KernelProfile(
        "dr.cmp", [compute_phase("c", instructions, warps=16)], iterations=1)


def test_sm_windows_continue_the_clock(small_arch):
    """Consecutive run() windows must keep executing (absolute clock)."""
    sm = DetailedSM(small_arch, _cmp_kernel().phases[0], 1165e6, seed=1)
    first = sm.run(2000)
    second = sm.run(2000)
    assert second.instructions > first.instructions * 0.5


def test_sm_window_stats_are_per_window(small_arch):
    sm = DetailedSM(small_arch, _mem_kernel().phases[0], 1165e6, seed=1)
    first = sm.run(2000)
    second = sm.run(2000)
    # Cache stats must be window-local, not cumulative.
    assert second.l1_accesses < first.l1_accesses * 3


def test_static_run_completes_instruction_budget(small_arch):
    runner = DetailedClusterRunner(small_arch, _cmp_kernel(), seed=2)
    result = runner.run(StaticPolicy(5), max_epochs=200)
    assert result.instructions >= 60_000 * 0.95
    assert set(result.levels) == {5}
    assert result.time_s > 0 and result.energy_j > 0


def test_lower_level_same_work_less_energy_on_memory(small_arch):
    """The substrate physics carries over: a BW-capped kernel at the
    lowest point finishes the same work with less energy."""
    hi = DetailedClusterRunner(small_arch, _mem_kernel(), seed=3).run(
        StaticPolicy(5), max_epochs=300)
    lo = DetailedClusterRunner(small_arch, _mem_kernel(), seed=3).run(
        StaticPolicy(0), max_epochs=300)
    assert lo.instructions == pytest.approx(hi.instructions, rel=0.1)
    assert lo.energy_j < hi.energy_j * 0.9
    assert lo.time_s < hi.time_s * 1.25


def test_controller_transfers_to_detailed_substrate(small_pipeline,
                                                    small_arch):
    """The headline transfer check: a controller trained on interval-
    model data must still steer the per-cycle substrate correctly —
    down on memory-bound work, up on compute-bound work."""
    from repro.core.controller import SSMDVFSController
    model = small_pipeline.model("base")

    mem = DetailedClusterRunner(small_arch, _mem_kernel(), seed=2).run(
        SSMDVFSController(model, 0.10), max_epochs=300)
    assert min(mem.levels) <= 1  # found the low-level savings

    cmp_ = DetailedClusterRunner(small_arch, _cmp_kernel(), seed=2).run(
        SSMDVFSController(model, 0.10), max_epochs=300)
    steady = cmp_.levels[2:] or cmp_.levels
    assert sum(steady) / len(steady) >= 3.5  # stays near the top


def test_counters_from_detailed_are_valid(small_arch):
    from repro.gpu.detailed.runner import counters_from_detailed
    from repro.power.model import PowerModel
    sm = DetailedSM(small_arch, _mem_kernel().phases[0], 1165e6, seed=4)
    result = sm.run(2000)
    counters = counters_from_detailed(result, small_arch, 1165e6, 1.155,
                                      PowerModel.scaled_for(1), 0.9)
    assert counters["inst_total"] == result.instructions
    assert counters["power_per_core"] > 0
    assert 0 <= counters["l1_read_miss_rate"] <= 1
    assert counters["issue_slots"] == pytest.approx(
        2000 * small_arch.issue_width)
