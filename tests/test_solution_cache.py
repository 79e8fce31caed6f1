"""Interval-model solution cache: determinism, hits, invalidation.

The guarantee of the memoised epoch engine is that caching is
*observably free*: every simulated quantity — counter vectors, energy,
instruction counts, datagen labels — is bit-identical whether a solve
is served from the cache or recomputed.  The cache keys capture every
solver input exactly, so a hit can only ever return the row the solver
would have recomputed.  A one-entry cache, which flushes on every new
key, stands in for "cache off".
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import repro.datagen.protocol as protocol
from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.gpu.arch import small_test_config
from repro.gpu.interval_model import (NUM_SOLUTION_COLUMNS, SOL_IPC,
                                      SolutionCache, arch_solve_key_cached,
                                      frequency_key_id, pack_solve_key,
                                      phase_params_row,
                                      phase_solve_key_cached,
                                      solve_throughput,
                                      solve_throughput_batch)
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import FLAT_TRACK_ID, WorkloadNoise
from repro.gpu.phases import balanced_phase, compute_phase
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignStats
from repro.rng import stream

ARCH = small_test_config()
PHASE = balanced_phase("b", 60_000)


def _hit_rate(cache):
    """Fraction of the cache's lookups it served."""
    return cache.hits / (cache.hits + cache.misses)


def _kernel(jitter=0.08):
    return KernelProfile("cache.k",
                         [balanced_phase("b", 60_000),
                          compute_phase("c", 40_000, warps=16)],
                         iterations=10, jitter=jitter)


def _starved_cache():
    return SolutionCache(max_entries=1)


def _epoch_stream(use_cache, epochs=8):
    """Forward epochs over several levels, then a snapshot replay.

    The replay re-executes the same workload stretch, which is what
    actually exercises cache hits (a plain forward run with jitter never
    re-solves a position).
    """
    simulator = GPUSimulator(ARCH, _kernel(), seed=3,
                             solution_cache=(None if use_cache
                                             else _starved_cache()))
    simulator.set_all_levels(ARCH.vf_table.default_level)
    records = []
    snapshot = simulator.snapshot()
    for replay in range(3):
        simulator.restore(snapshot)
        for index in range(epochs):
            # Exercise several operating points, not just the default.
            simulator.set_all_levels(index % ARCH.vf_table.num_levels)
            if simulator.finished:
                break
            records.append(simulator.step_epoch())
    return records, simulator


# ---------------------------------------------------------------------------
# Bit-identity: cache on vs cache off
# ---------------------------------------------------------------------------

def test_epoch_stream_bit_identical_cache_on_off():
    cached, sim = _epoch_stream(True)
    uncached, starved = _epoch_stream(False)
    assert sim.solution_cache.hits > 0
    assert (_hit_rate(starved.solution_cache)
            < _hit_rate(sim.solution_cache) / 4)
    assert len(cached) == len(uncached) > 0
    for a, b in zip(cached, uncached):
        assert a.levels == b.levels
        assert a.instructions == b.instructions
        assert a.cluster_energy_j == b.cluster_energy_j
        assert a.uncore_energy_j == b.uncore_energy_j
        assert np.array_equal(a.counters.as_vector(), b.counters.as_vector())
        for ca, cb in zip(a.cluster_counters, b.cluster_counters):
            assert np.array_equal(ca.as_vector(), cb.as_vector())


def test_datagen_bit_identical_cache_on_off(monkeypatch):
    base = dict(max_breakpoints_per_kernel=2, seed=7)
    stats = CampaignStats()
    on = generate_for_kernel(_kernel(), ARCH,
                             config=ProtocolConfig(**base), stats=stats)
    # The protocol builds its own simulator (and its grid lanes share
    # that simulator's cache): hand it the starved cache.
    starved = _starved_cache()
    monkeypatch.setattr(protocol, "GPUSimulator",
                        partial(GPUSimulator, solution_cache=starved))
    off = generate_for_kernel(_kernel(), ARCH,
                              config=ProtocolConfig(**base))
    on_hits = stats.counters["solve_cache_hit"]
    on_rate = on_hits / (on_hits + stats.counters["solve_cache_miss"])
    assert starved.misses > 0
    assert _hit_rate(starved) < on_rate / 4
    assert len(on) == len(off) > 0
    for a, b in zip(on, off):
        assert a.levels == b.levels
        assert a.losses == b.losses
        assert a.segment_losses == b.segment_losses
        assert a.tf_s == b.tf_s
        assert a.window_instructions == b.window_instructions
        assert np.array_equal(a.feature_counters.as_vector(),
                              b.feature_counters.as_vector())
        for (la, ca), (lb, cb) in zip(a.feature_variants, b.feature_variants):
            assert la == lb
            assert np.array_equal(ca.as_vector(), cb.as_vector())


# ---------------------------------------------------------------------------
# Hit behaviour on the replay protocol
# ---------------------------------------------------------------------------

def test_replay_protocol_hits_dominate():
    stats = CampaignStats()
    config = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)
    generate_for_kernel(_kernel(), ARCH, config=config, stats=stats)
    hits = stats.counters["solve_cache_hit"]
    misses = stats.counters["solve_cache_miss"]
    # The 6-point replay re-executes each workload stretch many times
    # over; most solves must come from the cache.
    assert misses > 0
    assert hits > misses
    # The counters reach the --stats report.
    assert "solve_cache_hit" in stats.render()


def test_snapshot_replay_hits_without_jitter():
    # sigma = 0 collapses the noise multipliers to (1, 1, 1): a replayed
    # epoch is served entirely from the cache.
    simulator = GPUSimulator(ARCH, _kernel(jitter=0.0), seed=3)
    simulator.set_all_levels(ARCH.vf_table.default_level)
    simulator.step_epoch()
    cache = simulator.solution_cache
    snapshot = simulator.snapshot()
    first = simulator.step_epoch()
    misses_before = cache.misses
    simulator.restore(snapshot)
    second = simulator.step_epoch()
    assert cache.misses == misses_before
    assert np.array_equal(first.counters.as_vector(),
                          second.counters.as_vector())


# ---------------------------------------------------------------------------
# Key derivation and invalidation
# ---------------------------------------------------------------------------

#: Two independent jittered tracks (fresh ids: no content key).
NOISE_A = WorkloadNoise(stream("cache.a", 1), sigma=0.1)
NOISE_B = WorkloadNoise(stream("cache.b", 1), sigma=0.1)


def _multipliers(noise, chunk):
    return (1.0, 1.0, 1.0) if noise is None else noise.multipliers(chunk)


def _lookup(cache, arch, phase, freq, noise=None, chunk=0):
    """One batched lookup; on a miss, solve and store the row.

    ``noise=None`` is a flat track: id 0, chunk 0, unit multipliers.
    """
    track = FLAT_TRACK_ID if noise is None else noise.track_id
    key = pack_solve_key(arch_solve_key_cached(arch),
                         phase_solve_key_cached(phase),
                         frequency_key_id(freq), track,
                         0 if noise is None else chunk)
    out = np.empty((1, NUM_SOLUTION_COLUMNS))
    missing = cache.probe_batch([key], out)
    if missing:
        warp_m, miss_m, cpi_m = _multipliers(noise, chunk)
        params = phase_params_row(phase)[None, :]
        rows = solve_throughput_batch(
            arch, params, np.array([freq]), np.array([warp_m]),
            np.array([miss_m]), np.array([cpi_m])).columns()
        cache.store_batch(missing, rows)
        return rows[0]
    return out[0]


def test_hit_returns_identical_solution_and_payload():
    cache = SolutionCache()
    first = _lookup(cache, ARCH, PHASE, 1.0e9)
    second = _lookup(cache, ARCH, PHASE, 1.0e9)
    assert cache.hits == 1 and cache.misses == 1
    assert first.tobytes() == second.tobytes()
    assert second[SOL_IPC] == solve_throughput(ARCH, PHASE, 1.0e9).ipc


def test_distinct_inputs_never_alias():
    cache = SolutionCache()
    variants = [
        (ARCH, PHASE, 1.0e9, None, 0),
        (ARCH, PHASE, 1.2e9, None, 0),                 # frequency
        (ARCH, PHASE, 1.0e9, NOISE_A, 0),              # noise track
        (ARCH, PHASE, 1.0e9, NOISE_A, 1),              # noise chunk
        (ARCH, PHASE, 1.0e9, NOISE_B, 0),              # another track
        (ARCH, PHASE, 1.0e9, NOISE_B, 1),
        (ARCH, compute_phase("c", 40_000, warps=16),   # phase
         1.0e9, None, 0),
        (replace(ARCH, issue_width=2.0), PHASE,
         1.0e9, None, 0),                              # architecture
    ]
    # Every jittered variant has its own multiplier triple.
    assert len({_multipliers(noise, chunk)
                for _, _, _, noise, chunk in variants}) == 5
    rows = [_lookup(cache, *v) for v in variants]
    assert cache.misses == len(variants) and cache.hits == 0
    for variant, row in zip(variants, rows):
        arch, phase, freq, noise, chunk = variant
        warp_m, miss_m, cpi_m = _multipliers(noise, chunk)
        assert row[SOL_IPC] == solve_throughput(
            arch, phase, freq, warp_multiplier=warp_m,
            miss_multiplier=miss_m, cpi_multiplier=cpi_m).ipc


def test_equal_valued_arch_objects_share_entries():
    # Keys derive from the solver-relevant *fields*, not object identity,
    # so a second arch object with identical values hits.
    cache = SolutionCache()
    _lookup(cache, small_test_config(), PHASE, 1.0e9)
    _lookup(cache, small_test_config(), PHASE, 1.0e9)
    assert cache.hits == 1 and cache.misses == 1


def test_eviction_clears_and_counts():
    cache = SolutionCache(max_entries=2)
    for index in range(3):
        _lookup(cache, ARCH, PHASE, 1.0e9 + index * 1e7)
    assert cache.evictions == 2  # both resident entries were flushed
    assert len(cache) == 1  # flushed at capacity, then one fresh entry
    assert cache.misses == 3
    # A re-solve of a flushed key misses again but stays correct.
    row = _lookup(cache, ARCH, PHASE, 1.0e9)
    assert row[SOL_IPC] == solve_throughput(ARCH, PHASE, 1.0e9).ipc


def test_invalid_max_entries_rejected():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        SolutionCache(max_entries=0)


def test_hit_rate_accounting():
    cache = SolutionCache()
    assert cache.hits == cache.misses == 0
    _lookup(cache, ARCH, PHASE, 1.0e9)
    _lookup(cache, ARCH, PHASE, 1.0e9)
    _lookup(cache, ARCH, PHASE, 1.1e9)
    assert cache.hits + cache.misses == 3
    assert _hit_rate(cache) == pytest.approx(1.0 / 3.0)
