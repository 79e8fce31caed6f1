"""Epoch engine: stacked interval solves and the batched solve cache.

End-to-end outputs of the engine are pinned by ``tests/test_golden.py``;
these tests cover its building blocks: property-based random solve
stacks against the scalar solver, the solution cache's batched
probe/store protocol, eviction, and key interning.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.gpu.arch import small_test_config, titan_x_config
from repro.gpu.cluster import (QR_BW_UTIL, QR_IPC, QROW_WIDTH,
                               quantum_rows_batch)
from repro.gpu.interval_model import (SolutionCache, ThroughputSolution,
                                      arch_solve_key_cached,
                                      intern_solve_key, phase_params_row,
                                      phase_solve_key_cached,
                                      solve_throughput,
                                      solve_throughput_batch)
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import Phase, compute_phase, make_mix
from repro.parallel import CampaignStats

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


@st.composite
def solve_stacks(draw):
    """A random (phase, frequency, multipliers) stack for the batch solver."""
    stack = []
    for _ in range(draw(st.integers(1, 8))):
        stack.append((
            draw(phases()),
            draw(st.sampled_from(F_LEVELS)),
            draw(st.floats(0.55, 1.45)),
            draw(st.floats(0.55, 1.45)),
            draw(st.floats(0.55, 1.45)),
        ))
    return stack


@given(solve_stacks())
@settings(max_examples=60, deadline=None)
def test_batch_solver_bit_identical_to_scalar(stack):
    """Every element of a batched solve equals the scalar solver's bits."""
    params = np.stack([phase_params_row(phase) for phase, *_ in stack])
    freq = np.array([s[1] for s in stack])
    wm = np.array([s[2] for s in stack])
    mm = np.array([s[3] for s in stack])
    cm = np.array([s[4] for s in stack])
    batch = solve_throughput_batch(ARCH, params, freq, wm, mm, cm)
    rows = quantum_rows_batch(ARCH, params, batch)
    for j, (phase, f, w, m, c) in enumerate(stack):
        scalar = solve_throughput(ARCH, phase, f, warp_multiplier=w,
                                  miss_multiplier=m, cpi_multiplier=c)
        for name in (field.name
                     for field in dataclasses.fields(ThroughputSolution)):
            # Exact equality: every field's bits.
            assert getattr(batch, name)[j] == getattr(scalar, name), name
        assert rows[j, QR_IPC] == scalar.ipc
        assert rows[j, QR_BW_UTIL] == scalar.bandwidth_utilization


def test_datagen_surfaces_batched_cache_counters():
    """The protocol reports the solve cache's hit/miss/eviction counters."""
    arch = small_test_config(num_clusters=2)
    stats = CampaignStats()
    cfg = ProtocolConfig(seed=2, max_breakpoints_per_kernel=2)
    kernel = KernelProfile("q.compute", [compute_phase("c", 60_000, warps=16)],
                           iterations=3, jitter=0.05)
    generate_for_kernel(kernel, arch, config=cfg, stats=stats)
    for name in ("solve_cache_hit", "solve_cache_miss",
                 "solve_cache_evictions"):
        assert name in stats.counters
    assert stats.counters["solve_cache_miss"] > 0


def _key(arch, phase, freq, warp_m=1.0):
    return (arch_solve_key_cached(arch), phase_solve_key_cached(phase),
            freq, warp_m, 1.0, 1.0)


def _solved_rows(arch, phase, freq):
    params = phase_params_row(phase)[None, :]
    batch = solve_throughput_batch(
        arch, params, np.array([freq]), np.ones(1), np.ones(1), np.ones(1))
    return quantum_rows_batch(arch, params, batch)


def test_cache_batch_probe_store():
    """probe pre-inserts a slot per miss, store fills it in place, and a
    later probe copies the stored row out without re-solving."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("lazy", 50_000, warps=16)
    freq = arch.vf_table.frequencies_hz()[0]
    cache = SolutionCache()
    key = _key(arch, phase, freq)

    out = np.empty((1, QROW_WIDTH))
    missing = cache.probe_batch([key], out)
    assert [index for index, _ in missing] == [0]
    assert cache.misses == 1 and len(cache) == 1

    rows = _solved_rows(arch, phase, freq)
    cache.store_batch(missing, rows)

    out2 = np.empty_like(out)
    assert cache.probe_batch([key], out2) == []
    assert cache.hits == 1
    assert out2[0].tobytes() == rows[0].tobytes()


def test_cache_pending_slot_is_a_fresh_miss():
    """A duplicate key inside one wave, or a slot an aborted batch left
    unfilled, misses again instead of returning an empty row."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("dup", 50_000, warps=16)
    freq = arch.vf_table.frequencies_hz()[1]
    cache = SolutionCache()
    key = _key(arch, phase, freq)
    missing = cache.probe_batch([key, key], np.empty((2, QROW_WIDTH)))
    assert [index for index, _ in missing] == [0, 1]
    assert cache.misses == 2 and len(cache) == 1


def test_cache_eviction_counter():
    """Clear-on-full eviction is counted."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("evict", 10_000, warps=8)
    freqs = arch.vf_table.frequencies_hz()
    cache = SolutionCache(max_entries=2)
    keys = [_key(arch, phase, freqs[0], 1.0 + index / 16.0)
            for index in range(4)]
    cache.probe_batch(keys, np.empty((len(keys), QROW_WIDTH)))
    assert cache.evictions > 0


def test_intern_solve_key_is_bijective():
    keys = [(1.0, 2.0), (3.0,), (1.0, 2.0)]
    ids = [intern_solve_key(k) for k in keys]
    assert ids[0] == ids[2]
    assert ids[0] != ids[1]
