"""Phase descriptions and phase builders."""

import pytest

from repro.errors import WorkloadError
from repro.gpu.phases import (INSTRUCTION_CLASSES, Phase, balanced_phase,
                              compute_phase, divergent_phase, make_mix,
                              memory_phase)


def test_default_phase_is_valid():
    phase = Phase(name="p", instructions=1000)
    assert phase.load_fraction + phase.store_fraction == pytest.approx(0.20)


def test_make_mix_fills_int_remainder():
    mix = make_mix(fp32=0.4, load=0.2, store=0.1, branch=0.1)
    assert mix["int"] == pytest.approx(0.2)
    assert sum(mix.values()) == pytest.approx(1.0)


def test_make_mix_rejects_unknown_class():
    with pytest.raises(WorkloadError):
        make_mix(fp128=0.5)


def test_make_mix_rejects_over_unity():
    with pytest.raises(WorkloadError):
        make_mix(fp32=0.8, load=0.4)


def test_make_mix_rejects_negative():
    with pytest.raises(WorkloadError):
        make_mix(fp32=-0.1)


def test_mix_must_sum_to_one():
    bad = {cls: 0.0 for cls in INSTRUCTION_CLASSES}
    bad["fp32"] = 0.5
    with pytest.raises(WorkloadError):
        Phase(name="p", instructions=100, mix=bad)


def test_zero_instructions_rejected():
    with pytest.raises(WorkloadError):
        Phase(name="p", instructions=0)


def test_cpi_below_one_rejected():
    with pytest.raises(WorkloadError):
        Phase(name="p", instructions=100, cpi_exec=0.5)


def test_miss_rate_out_of_range_rejected():
    with pytest.raises(WorkloadError):
        Phase(name="p", instructions=100, l1_miss_rate=1.5)


def test_builders_produce_valid_phases():
    for phase in (compute_phase("c", 1000), memory_phase("m", 1000),
                  balanced_phase("b", 1000), divergent_phase("d", 1000)):
        assert sum(phase.mix.values()) == pytest.approx(1.0)
        assert phase.instructions == 1000


def test_memory_phase_is_more_memory_heavy_than_compute_phase():
    mem = memory_phase("m", 1000)
    cmp_ = compute_phase("c", 1000)
    assert (mem.load_fraction + mem.store_fraction
            > cmp_.load_fraction + cmp_.store_fraction)
    assert mem.l1_miss_rate > cmp_.l1_miss_rate


def test_divergent_phase_has_high_branch_fraction():
    div = divergent_phase("d", 1000)
    assert div.branch_fraction > balanced_phase("b", 1000).branch_fraction
    assert div.divergence >= 0.4


def test_scaled_preserves_everything_but_count():
    base = balanced_phase("b", 1000)
    scaled = base.scaled(5000)
    assert scaled.instructions == 5000
    assert scaled.mix == base.mix
    assert scaled.cpi_exec == base.cpi_exec
