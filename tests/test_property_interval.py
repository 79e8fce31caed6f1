"""Property-based tests: interval-model invariants over random phases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import titan_x_config
from repro.gpu.interval_model import solve_throughput
from repro.gpu.phases import Phase, make_mix

ARCH = titan_x_config()
F_LEVELS = ARCH.vf_table.frequencies_hz()


@st.composite
def phases(draw):
    """Arbitrary valid phases spanning the physical parameter space."""
    load = draw(st.floats(0.0, 0.35))
    store = draw(st.floats(0.0, 0.12))
    branch = draw(st.floats(0.0, 0.25))
    fp32 = draw(st.floats(0.0, max(0.0, 0.95 - load - store - branch)))
    mix = make_mix(fp32=fp32, load=load, store=store, branch=branch)
    return Phase(
        name="prop",
        instructions=draw(st.integers(1_000, 1_000_000)),
        mix=mix,
        cpi_exec=draw(st.floats(1.0, 6.0)),
        mlp=draw(st.floats(1.0, 8.0)),
        l1_miss_rate=draw(st.floats(0.0, 1.0)),
        l2_miss_rate=draw(st.floats(0.0, 1.0)),
        active_warps=draw(st.floats(1.0, 64.0)),
        divergence=draw(st.floats(0.0, 1.0)),
    )


@given(phases(), st.sampled_from(F_LEVELS))
@settings(max_examples=150, deadline=None)
def test_ipc_is_positive_and_bounded(phase, frequency):
    solution = solve_throughput(ARCH, phase, frequency)
    assert 0.0 < solution.ipc <= ARCH.issue_width + 1e-9


@given(phases())
@settings(max_examples=100, deadline=None)
def test_time_never_improves_at_lower_frequency(phase):
    """Wall-clock time for fixed work is non-increasing in frequency."""
    times = []
    for frequency in F_LEVELS:
        solution = solve_throughput(ARCH, phase, frequency)
        times.append(solution.time_for_instructions(10_000.0))
    for slower, faster in zip(times, times[1:]):
        assert faster <= slower * (1.0 + 1e-9)


@given(phases())
@settings(max_examples=100, deadline=None)
def test_slowdown_bounded_by_frequency_ratio(phase):
    """Physics bound: slowdown between two V/f points never exceeds the
    clock ratio (memory latency only *hides* cycles at low f)."""
    hi, lo = F_LEVELS[-1], F_LEVELS[0]
    t_hi = solve_throughput(ARCH, phase, hi).time_for_instructions(10_000.0)
    t_lo = solve_throughput(ARCH, phase, lo).time_for_instructions(10_000.0)
    slowdown = t_lo / t_hi
    assert 1.0 - 1e-9 <= slowdown <= hi / lo + 1e-9


@given(phases(), st.sampled_from(F_LEVELS))
@settings(max_examples=150, deadline=None)
def test_stall_slot_accounting_identity(phase, frequency):
    """issued + stalls == issue budget, always."""
    solution = solve_throughput(ARCH, phase, frequency)
    budget = ARCH.issue_width * solution.cycles_per_instruction
    stalls = (solution.stall_mem_load + solution.stall_mem_other
              + solution.stall_control + solution.stall_sync
              + solution.stall_data + solution.stall_idle)
    assert abs(1.0 + stalls - budget) < 1e-6


@given(phases(), st.sampled_from(F_LEVELS))
@settings(max_examples=100, deadline=None)
def test_stall_components_nonnegative(phase, frequency):
    solution = solve_throughput(ARCH, phase, frequency)
    assert solution.stall_mem_load >= 0
    assert solution.stall_mem_other >= 0
    assert solution.stall_control >= 0
    assert solution.stall_sync >= 0
    assert solution.stall_data >= 0
    assert solution.stall_idle >= -1e-12


@given(phases(), st.sampled_from(F_LEVELS), st.floats(1.1, 2.0))
@settings(max_examples=100, deadline=None)
def test_more_warps_never_hurts(phase, frequency, factor):
    base = solve_throughput(ARCH, phase, frequency)
    boosted = solve_throughput(ARCH, phase, frequency,
                               warp_multiplier=factor)
    assert boosted.ipc >= base.ipc * (1.0 - 1e-9)


@given(phases(), st.sampled_from(F_LEVELS))
@settings(max_examples=100, deadline=None)
def test_bandwidth_utilization_bounded(phase, frequency):
    solution = solve_throughput(ARCH, phase, frequency)
    assert 0.0 <= solution.bandwidth_utilization <= 1.0 + 1e-9


@given(phases(), st.sampled_from(F_LEVELS),
       st.floats(1.0, 100_000.0))
@settings(max_examples=100, deadline=None)
def test_time_instruction_round_trip(phase, frequency, instructions):
    import pytest
    solution = solve_throughput(ARCH, phase, frequency)
    elapsed = solution.time_for_instructions(instructions)
    assert elapsed * frequency * solution.ipc == pytest.approx(
        instructions, rel=1e-9)
