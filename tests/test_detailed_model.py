"""Detailed per-cycle model, and its agreement with the interval model."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.gpu.arch import titan_x_config
from repro.gpu.detailed.cache import SetAssociativeCache
from repro.gpu.detailed.memsys import MemorySubsystem
from repro.gpu.detailed.sm import DetailedSM
from repro.gpu.interval_model import solve_throughput
from repro.gpu.phases import compute_phase, memory_phase

ARCH = titan_x_config()
F_HI = 1165e6
F_LO = 683e6


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        SetAssociativeCache(0, 4, 128)
    with pytest.raises(ConfigError):
        SetAssociativeCache(1000, 3, 128)  # not divisible


def test_cache_hit_after_fill():
    cache = SetAssociativeCache(4096, 4, 128)
    assert not cache.access(0)       # cold miss
    assert cache.access(0)           # now hot
    assert cache.access(64)          # same line
    assert cache.hits == 2 and cache.misses == 1


def test_cache_lru_eviction():
    cache = SetAssociativeCache(2 * 128, 2, 128)  # 1 set, 2 ways
    cache.access(0)
    cache.access(128)
    cache.access(0)          # touch line 0 -> line 1 becomes LRU
    cache.access(256)        # evicts line 1
    assert cache.access(0)   # line 0 still resident
    assert not cache.access(128)  # line 1 was evicted


def test_cache_streaming_misses():
    cache = SetAssociativeCache(8192, 4, 128)
    for i in range(200):
        cache.access(i * 128 * 64)  # far-apart lines: mostly conflict
    assert cache.misses / cache.accesses > 0.9


# ---------------------------------------------------------------------------
# Memory subsystem
# ---------------------------------------------------------------------------

def test_memsys_l2_latency():
    mem = MemorySubsystem(180.0, 320.0, 14e9, 128)
    assert mem.l2_request_ready_s(0.0) == pytest.approx(180e-9)


def test_memsys_dram_latency_and_bandwidth():
    mem = MemorySubsystem(180.0, 320.0, 14e9, 128)
    first = mem.dram_request_ready_s(0.0)
    assert first == pytest.approx(500e-9)
    # Saturate: issue many requests at t=0; they serialize on the
    # channel at line/bandwidth spacing.
    times = [mem.dram_request_ready_s(0.0) for _ in range(100)]
    spacing = np.diff(times)
    assert np.allclose(spacing, 128 / 14e9)
    assert mem.dram_bytes == 101 * 128


def test_memsys_validation():
    with pytest.raises(ConfigError):
        MemorySubsystem(-1, 320, 14e9, 128)
    with pytest.raises(ConfigError):
        MemorySubsystem(180, 320, 0, 128)


# ---------------------------------------------------------------------------
# Detailed SM vs interval model
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_detailed_matches_target_miss_rate():
    phase = memory_phase("m", 10_000, warps=32)
    result = DetailedSM(ARCH, phase, F_HI, seed=1).run(6000)
    assert result.l1_miss_rate == pytest.approx(phase.l1_miss_rate, abs=0.08)


@pytest.mark.slow
def test_detailed_instruction_mix_matches_phase():
    phase = memory_phase("m", 10_000, warps=32)
    result = DetailedSM(ARCH, phase, F_HI, seed=2).run(6000)
    for cls, frac in phase.mix.items():
        observed = result.inst_by_class[cls] / result.instructions
        assert observed == pytest.approx(frac, abs=0.05)


@pytest.mark.slow
def test_detailed_more_warps_more_throughput():
    lo = DetailedSM(ARCH, compute_phase("c", 1, warps=4), F_HI, seed=3)
    hi = DetailedSM(ARCH, compute_phase("c", 1, warps=32), F_HI, seed=3)
    assert hi.run(5000).ipc > lo.run(5000).ipc * 1.5


@pytest.mark.slow
def test_frequency_sensitivity_agreement_compute():
    """Both models must call a compute phase frequency-sensitive."""
    phase = compute_phase("c", 10_000, warps=16)
    det_hi = DetailedSM(ARCH, phase, F_HI, seed=4).run(8000)
    det_lo = DetailedSM(ARCH, phase, F_LO, seed=4).run(8000)
    detailed_ratio = (det_hi.ipc * F_HI) / (det_lo.ipc * F_LO)
    ana_ratio = (solve_throughput(ARCH, phase, F_HI).ipc * F_HI
                 / (solve_throughput(ARCH, phase, F_LO).ipc * F_LO))
    assert detailed_ratio > 1.4
    assert detailed_ratio == pytest.approx(ana_ratio, rel=0.2)


@pytest.mark.slow
def test_frequency_sensitivity_agreement_memory():
    """Both models must call a memory phase frequency-insensitive."""
    phase = memory_phase("m", 10_000, warps=32)
    det_hi = DetailedSM(ARCH, phase, F_HI, seed=5).run(8000)
    det_lo = DetailedSM(ARCH, phase, F_LO, seed=5).run(8000)
    detailed_ratio = (det_hi.ipc * F_HI) / (det_lo.ipc * F_LO)
    assert detailed_ratio < 1.25


@pytest.mark.slow
def test_detailed_validation_errors():
    phase = compute_phase("c", 10_000)
    with pytest.raises(SimulationError):
        DetailedSM(ARCH, phase, 0.0)
    with pytest.raises(SimulationError):
        DetailedSM(ARCH, phase, F_HI).run(0)
