"""Utilization governor baseline."""

import pytest

from repro.baselines.governor import UtilizationGovernor
from repro.gpu.counters import CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.core.policy import StaticPolicy


def _kernel(kind="memory", iterations=12):
    phase = (memory_phase("m", 120_000, warps=48, l1_miss=0.9, l2_miss=0.9)
             if kind == "memory" else compute_phase("c", 120_000, warps=16))
    return KernelProfile(f"xb.{kind}", [phase], iterations=iterations,
                         jitter=0.05)


# ---------------------------------------------------------------------------
# Utilization governor
# ---------------------------------------------------------------------------

def test_governor_utilization_computation():
    counters = CounterSet({"inst_total": 3000.0, "issue_slots": 10_000.0})
    assert UtilizationGovernor.utilization(counters) == pytest.approx(0.3)
    assert UtilizationGovernor.utilization(CounterSet()) == 0.0


def test_governor_runs_and_adapts(small_arch):
    policy = UtilizationGovernor()
    simulator = GPUSimulator(small_arch, _kernel("memory"), seed=4)
    result = simulator.run(policy, keep_records=True)
    levels = {lvl for r in result.records for lvl in r.levels}
    assert len(levels) > 1  # it moved the operating point


def test_governor_drops_level_on_low_utilization(small_arch):
    """A memory-stalled kernel has low issue utilization, so the
    governor should walk it below the default level."""
    policy = UtilizationGovernor()
    simulator = GPUSimulator(small_arch, _kernel("memory"), seed=4)
    result = simulator.run(policy, keep_records=True)
    final_levels = result.records[-1].levels
    assert min(final_levels) < small_arch.vf_table.default_level


def test_governor_blind_to_memory_boundedness(small_arch):
    """The governor's weakness: on a memory kernel it may drift up and
    down with utilization noise rather than pinning the minimum level.
    Structural check only: it must never crash and must stay in range."""
    policy = UtilizationGovernor()
    simulator = GPUSimulator(small_arch, _kernel("memory"), seed=5)
    result = simulator.run(policy, keep_records=True)
    for record in result.records:
        assert all(0 <= lvl <= 5 for lvl in record.levels)


def test_governor_vs_static_baseline(small_arch):
    kernel = _kernel("memory")
    base = GPUSimulator(small_arch, kernel, seed=6).run(
        StaticPolicy(small_arch.vf_table.default_level), keep_records=False)
    governed = GPUSimulator(small_arch, kernel, seed=6).run(
        UtilizationGovernor(), keep_records=False)
    # It should save at least some energy on a stalled kernel.
    assert governed.energy_j < base.energy_j * 1.02
