"""Epoch engine: the quantum walk, stacked solves and the solve cache.

End-to-end outputs of the engine are pinned by ``tests/test_golden.py``;
these tests cover the engine against a readable one-quantum-at-a-time
reference stepper, and its building blocks: property-based random solve
stacks against a readable one-row reference solver, the solution
cache's batched probe/store protocol, eviction, and key packing and
interning.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policy import ModelOraclePolicy
from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.errors import SimulationError
from repro.gpu.arch import small_test_config, titan_x_config
from repro.gpu.cluster import (A_BUSY_S, A_BW_UTIL_TIME, A_CYCLES,
                               NUM_ACTIVITY_SLOTS, QR_BW_UTIL, QR_IPC,
                               ClusterState, quantum_rows_batch)
from repro.gpu.interval_model import (_DIVERGENCE_CPI_FACTOR,
                                      _STORE_EXPOSURE, _SYNC_COST_CYCLES,
                                      KEY_ARCH_BITS, KEY_CHUNK_BITS,
                                      KEY_FREQ_BITS, KEY_NOISE_BITS,
                                      KEY_PHASE_BITS, NUM_SOLUTION_COLUMNS,
                                      SOL_IPC, SolutionCache,
                                      ThroughputSolution,
                                      arch_solve_key_cached,
                                      frequency_key_id, intern_solve_key,
                                      pack_solve_key, phase_params_row,
                                      phase_solve_key_cached,
                                      solve_throughput,
                                      solve_throughput_batch)
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import WorkloadNoise
from repro.gpu.phases import (Phase, balanced_phase, compute_phase,
                              divergent_phase, make_mix, memory_phase)
from repro.gpu.quantum import run_epoch_batch
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignStats
from repro.rng import stream
from repro.units import us
from repro.workloads.suites import estimate_default_duration, full_suite

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


# ---------------------------------------------------------------------------
# The solver against a readable one-row reference
# ---------------------------------------------------------------------------

def _reference_solve(arch, phase, frequency_hz, warp_multiplier=1.0,
                     miss_multiplier=1.0, cpi_multiplier=1.0):
    """The interval model for one phase at one frequency, in Python floats.

    A single warp completes an instruction every ``c_solo`` cycles:
    issue cost plus the exposed load/store latency and sync waits.
    ``warps`` of them overlap up to the issue width, and the cluster's
    fair share of DRAM bandwidth caps the rate.  The stall slots left
    over per instruction are split by contribution, 8 % kept idle.
    """
    warps = min(arch.max_warps_per_cluster,
                max(1.0, phase.active_warps * warp_multiplier))
    l1_miss = min(1.0, phase.l1_miss_rate * miss_multiplier)
    l2_miss = min(1.0, phase.l2_miss_rate)
    div_term = 1.0 + _DIVERGENCE_CPI_FACTOR * phase.divergence
    cpi = (phase.cpi_exec * cpi_multiplier) * div_term

    # L1 hits cost core cycles; L2 and DRAM round trips are fixed in
    # nanoseconds, so their cycle cost grows with the core clock.
    beyond_l1_ns = arch.l2_latency_ns + l2_miss * arch.dram_latency_ns
    beyond_l1_cycles = beyond_l1_ns * 1e-9 * frequency_hz
    mem_latency = arch.l1_hit_latency_cycles + l1_miss * beyond_l1_cycles
    load_wait = phase.load_fraction * mem_latency / phase.mlp
    store_wait = (phase.store_fraction * mem_latency * _STORE_EXPOSURE
                  / phase.mlp)
    sync_wait = phase.mix.get("sync", 0.0) * _SYNC_COST_CYCLES
    c_solo = cpi + load_wait + store_wait + sync_wait

    ipc_overlap = min(arch.issue_width, warps / c_solo)

    # Loads miss L1 then L2; ~90 % of stores write through L1 and miss
    # L2 at the phase's L2 miss rate.  Only L2 misses reach DRAM.
    load_share = phase.load_fraction * l1_miss * l2_miss
    store_share = phase.store_fraction * 0.9 * l2_miss
    bytes_per_inst = (load_share + store_share) * arch.cache_line_bytes
    if bytes_per_inst > 0:
        ipc_bandwidth = (arch.cluster_bandwidth_bytes_per_s
                         / (frequency_hz * bytes_per_inst))
    else:
        ipc_bandwidth = float("inf")

    bandwidth_limited = ipc_bandwidth < ipc_overlap
    ipc = max(1e-9, min(ipc_overlap, ipc_bandwidth))
    cycles_per_instruction = 1.0 / ipc
    traffic = ipc * frequency_hz * bytes_per_inst
    bandwidth_utilization = min(
        1.0, traffic / arch.cluster_bandwidth_bytes_per_s)

    stall_total = max(0.0, arch.issue_width * cycles_per_instruction - 1.0)
    control = (cpi * _DIVERGENCE_CPI_FACTOR * phase.divergence / div_term
               + phase.branch_fraction)
    data = max(0.0, cpi - control - 1.0)
    mem_load, mem_other = load_wait, store_wait
    if bandwidth_limited and load_share + store_share > 0:
        # Queueing beyond the raw latency shows up as extra memory
        # stalls, split by load/store traffic.
        extra = max(0.0, 1.0 / ipc_bandwidth - 1.0 / ipc_overlap) * warps
        mem_load += extra * load_share / (load_share + store_share)
        mem_other += extra * store_share / (load_share + store_share)
    contribs = (mem_load, mem_other, control, sync_wait, data)
    contrib_sum = sum(contribs)
    if contrib_sum > 0:
        parts = [stall_total * c / contrib_sum * 0.92 for c in contribs]
        idle = stall_total - sum(parts)
    else:
        parts = [0.0] * 5
        idle = stall_total

    return ThroughputSolution(
        frequency_hz=frequency_hz, ipc=ipc,
        cycles_per_instruction=cycles_per_instruction,
        mem_latency_cycles=mem_latency,
        bandwidth_utilization=bandwidth_utilization,
        bandwidth_limited=bandwidth_limited,
        stall_mem_load=parts[0], stall_mem_other=parts[1],
        stall_control=parts[2], stall_sync=parts[3], stall_data=parts[4],
        stall_idle=max(0.0, idle))


def _no_dram_phase():
    """No loads or stores: no DRAM traffic, so no bandwidth cap."""
    return Phase("no-dram", 50_000, mix=make_mix(fp32=0.7, branch=0.1),
                 cpi_exec=2.0, mlp=2.0, l1_miss_rate=0.5, l2_miss_rate=0.5,
                 active_warps=32.0, divergence=0.2)


def _stall_free_phase():
    """Nothing but FP32 on converged warps: no stall contributes."""
    return Phase("stall-free", 50_000, mix=make_mix(fp32=1.0), cpi_exec=1.0,
                 mlp=1.0, l1_miss_rate=0.3, l2_miss_rate=0.3,
                 active_warps=2.0, divergence=0.0)


@given(solve_stacks())
@example([(_no_dram_phase(), F_LEVELS[0], 1.0, 1.0, 1.0),
          (_no_dram_phase(), F_LEVELS[-1], 1.3, 0.7, 1.1)])
@example([(_stall_free_phase(), F_LEVELS[-1], 1.0, 1.0, 0.6),
          (_stall_free_phase(), F_LEVELS[0], 0.55, 1.0, 0.8)])
@settings(max_examples=60, deadline=None)
def test_batch_solver_bit_identical_to_scalar(stack):
    """Every element of a batched solve equals the reference's bits."""
    params = np.stack([phase_params_row(phase) for phase, *_ in stack])
    freq = np.array([s[1] for s in stack])
    wm = np.array([s[2] for s in stack])
    mm = np.array([s[3] for s in stack])
    cm = np.array([s[4] for s in stack])
    batch = solve_throughput_batch(ARCH, params, freq, wm, mm, cm)
    rows = quantum_rows_batch(ARCH, params, batch.columns())
    for j, (phase, f, w, m, c) in enumerate(stack):
        reference = _reference_solve(ARCH, phase, f, w, m, c)
        for name in (field.name
                     for field in dataclasses.fields(ThroughputSolution)):
            # Exact equality: every field's bits.
            assert getattr(batch, name)[j] == getattr(reference, name), name
        assert rows[j, QR_IPC] == reference.ipc
        assert rows[j, QR_BW_UTIL] == reference.bandwidth_utilization


def test_bandwidth_quotient_overflows_to_inf_without_a_warning():
    """A store-only phase with a subnormal L2 miss rate (found by
    hypothesis) moves so few bytes that the bandwidth quotient overflows:
    it comes out inf, as the Python-float reference gives, silently."""
    phase = Phase("store-only", 50_000, mix=make_mix(store=0.05),
                  cpi_exec=1.0, mlp=1.0, l1_miss_rate=1.0,
                  l2_miss_rate=1.1e-308, active_warps=8.0, divergence=0.0)
    params = np.stack([phase_params_row(phase)] * len(F_LEVELS))
    ones = np.ones(len(F_LEVELS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_throughput_batch(ARCH, params, np.array(F_LEVELS),
                                       ones, ones, ones)
        views = [solve_throughput(ARCH, phase, f) for f in F_LEVELS]
    for j, f in enumerate(F_LEVELS):
        reference = _reference_solve(ARCH, phase, f)
        assert views[j] == reference
        assert not reference.bandwidth_limited
        for field in dataclasses.fields(ThroughputSolution):
            assert getattr(batch, field.name)[j] == getattr(
                reference, field.name), field.name


@pytest.mark.parametrize("make_phase", (compute_phase, memory_phase))
def test_solve_throughput_is_a_one_row_view(make_phase):
    """The one-row view returns the reference's values as Python scalars
    and rejects a non-positive frequency or multiplier."""
    phase = make_phase("view", 50_000)
    for freq in (F_LEVELS[0], F_LEVELS[-1]):
        view = solve_throughput(ARCH, phase, freq, warp_multiplier=0.9,
                                miss_multiplier=1.2, cpi_multiplier=1.1)
        assert view == _reference_solve(ARCH, phase, freq, 0.9, 1.2, 1.1)
        for field in dataclasses.fields(ThroughputSolution):
            expected = bool if field.name == "bandwidth_limited" else float
            assert type(getattr(view, field.name)) is expected, field.name
    for bad in ({"frequency_hz": 0.0}, {"frequency_hz": -1e9},
                {"warp_multiplier": 0.0}, {"miss_multiplier": -0.5},
                {"cpi_multiplier": 0.0}):
        kwargs = {"frequency_hz": F_LEVELS[-1], **bad}
        with pytest.raises(SimulationError):
            solve_throughput(ARCH, phase, **kwargs)


def _reference_oracle_levels(simulator, preset):
    """The oracle's choice, one reference solve per (cluster, level)."""
    arch = simulator.arch
    table = arch.vf_table
    default_freq = table[table.default_level].frequency_hz
    levels = []
    for cluster in simulator.clusters:
        if cluster.finished:
            levels.append(table.min_level)
            continue
        phase = cluster.cursor.current_phase
        base = _reference_solve(arch, phase, default_freq)
        base_time = base.time_for_instructions(1000.0)
        chosen = table.default_level
        for level in range(table.num_levels):
            solution = _reference_solve(arch, phase, table[level].frequency_hz)
            slowdown = solution.time_for_instructions(1000.0) / base_time - 1.0
            if slowdown <= preset:
                chosen = level
                break
        levels.append(chosen)
    return levels


@pytest.mark.parametrize("preset", (0.0, 0.10, 10.0))
def test_oracle_matches_reference_per_cluster_loop(preset):
    """One stacked solve of clusters x levels picks the same levels as
    the reference loop, including for a cluster whose kernel finished."""
    seen = []

    class CheckedOracle(ModelOraclePolicy):
        def decide(self, record):
            levels = super().decide(record)
            assert levels == _reference_oracle_levels(self.simulator,
                                                      self.preset)
            assert all(type(level) is int for level in levels)
            seen.append((tuple(levels), any(
                cluster.finished for cluster in self.simulator.clusters)))
            return levels

    kernels = [KernelProfile("short", [compute_phase("c", 4_000)]),
               KernelProfile("mem", [memory_phase("m", 30_000),
                                     compute_phase("c", 20_000)]),
               KernelProfile("mix", [balanced_phase("b", 25_000),
                                     divergent_phase("d", 15_000)])]
    simulator = GPUSimulator(small_test_config(num_clusters=3), kernels,
                             seed=4)
    simulator.run(CheckedOracle(preset), keep_records=False)
    assert any(finished for _, finished in seen)
    assert len({levels for levels, _ in seen}) > 1 or preset == 10.0


@pytest.mark.parametrize("arch", (titan_x_config(),
                                  small_test_config(num_clusters=2)))
def test_default_duration_is_the_reference_sequential_sum(arch):
    """One stacked solve per kernel, summed in phase order as the
    reference does, bit for bit.  The long kernel has enough phases for
    numpy's pairwise summation to group a sum differently."""
    builders = (compute_phase, memory_phase, balanced_phase, divergent_phase)
    long_kernel = KernelProfile("long", [
        builders[k % 4](f"p{k}", 1_000 + 7_919 * k) for k in range(40)],
        iterations=3)
    for kernel in full_suite() + [long_kernel]:
        total = 0.0
        for phase in kernel.phases:
            solution = _reference_solve(arch, phase,
                                        arch.default_frequency_hz)
            total += solution.time_for_instructions(phase.instructions)
        expected = total * kernel.iterations
        assert (estimate_default_duration(kernel, arch).hex()
                == expected.hex()), kernel.name


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


def _key(arch, phase, freq, noise_id=0, chunk=0):
    return pack_solve_key(arch_solve_key_cached(arch),
                          phase_solve_key_cached(phase),
                          frequency_key_id(freq), noise_id, chunk)


def _solved_rows(arch, phase, freq):
    params = phase_params_row(phase)[None, :]
    batch = solve_throughput_batch(
        arch, params, np.array([freq]), np.ones(1), np.ones(1), np.ones(1))
    return batch.columns()


def test_cache_batch_probe_store():
    """probe pre-assigns a table row per miss, store fills it, and a
    later probe copies the stored row out without re-solving."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("lazy", 50_000, warps=16)
    freq = arch.vf_table.frequencies_hz()[0]
    cache = SolutionCache()
    key = _key(arch, phase, freq)

    out = np.empty((1, NUM_SOLUTION_COLUMNS))
    missing = cache.probe_batch([key], out)
    assert [index for index, _ in missing] == [0]
    assert cache.misses == 1 and len(cache) == 1

    rows = _solved_rows(arch, phase, freq)
    cache.store_batch(missing, rows)

    out2 = np.empty_like(out)
    assert cache.probe_batch([key], out2) == []
    assert cache.hits == 1
    assert out2[0].tobytes() == rows[0].tobytes()
    assert out2[0, SOL_IPC] == solve_throughput(arch, phase, freq).ipc


def test_cache_pending_slot_is_a_fresh_miss():
    """A duplicate key inside one wave, or a slot an aborted batch left
    unfilled, misses again instead of returning an empty row."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("dup", 50_000, warps=16)
    freq = arch.vf_table.frequencies_hz()[1]
    cache = SolutionCache()
    key = _key(arch, phase, freq)
    missing = cache.probe_batch([key, key],
                                np.empty((2, NUM_SOLUTION_COLUMNS)))
    assert [index for index, _ in missing] == [0, 1]
    assert cache.misses == 2 and len(cache) == 1
    # A batch aborted before its store leaves the row pending: the next
    # probe misses again rather than serving an unfilled row.
    again = cache.probe_batch([key], np.empty((1, NUM_SOLUTION_COLUMNS)))
    assert [index for index, _ in again] == [0]
    assert cache.misses == 3 and cache.hits == 0
    rows = _solved_rows(arch, phase, freq)
    cache.store_batch(again, rows)
    out = np.empty((1, NUM_SOLUTION_COLUMNS))
    assert cache.probe_batch([key], out) == []
    assert out[0].tobytes() == rows[0].tobytes()


def test_cache_eviction_counter():
    """Clear-on-full eviction is counted."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("evict", 10_000, warps=8)
    freqs = arch.vf_table.frequencies_hz()
    cache = SolutionCache(max_entries=2)
    keys = [_key(arch, phase, freqs[0], noise_id=1, chunk=index)
            for index in range(4)]
    missing = cache.probe_batch(keys,
                                np.empty((len(keys), NUM_SOLUTION_COLUMNS)))
    assert cache.evictions > 0
    assert len(missing) == len(keys) and len(cache) <= 2
    # Rows handed out before a flush inside the batch are not stored.
    cache.store_batch(missing, np.ones((len(keys), NUM_SOLUTION_COLUMNS)))
    out = np.empty((len(cache), NUM_SOLUTION_COLUMNS))
    assert cache.probe_batch(keys[-len(cache):], out) == []
    assert (out == 1.0).all()


def test_intern_solve_key_is_bijective():
    keys = [(1.0, 2.0), (3.0,), (1.0, 2.0)]
    ids = [intern_solve_key(k) for k in keys]
    assert ids[0] == ids[2]
    assert ids[0] != ids[1]


@pytest.mark.parametrize("field", range(5))
def test_packed_key_field_out_of_range_raises(field):
    widths = (KEY_ARCH_BITS, KEY_PHASE_BITS, KEY_FREQ_BITS, KEY_NOISE_BITS,
              KEY_CHUNK_BITS)
    fields = [0] * 5
    fields[field] = (1 << widths[field]) - 1
    top = pack_solve_key(*fields)
    assert top.bit_length() == sum(widths[field:])
    fields[field] = 1 << widths[field]
    with pytest.raises(SimulationError):
        pack_solve_key(*fields)
    fields[field] = -1
    with pytest.raises(SimulationError):
        pack_solve_key(*fields)


def test_packed_key_is_injective_on_its_fields():
    keys = {pack_solve_key(a, p, f, n, c)
            for a in (0, 1) for p in (0, 1) for f in (0, 1)
            for n in (0, 1) for c in (0, 1)}
    assert len(keys) == 32


# ---------------------------------------------------------------------------
# The engine against a one-quantum-at-a-time reference stepper
# ---------------------------------------------------------------------------

def _solution_columns(sol):
    """A reference solve as the one-row solver-output matrix of the cache."""
    return np.array([[sol.cycles_per_instruction, sol.stall_mem_load,
                      sol.stall_mem_other, sol.stall_control, sol.stall_sync,
                      sol.stall_data, sol.stall_idle, sol.mem_latency_cycles,
                      sol.ipc, sol.bandwidth_utilization]])


def _reference_epoch(cluster, epoch_s):
    """Step one cluster through one epoch, one quantum at a time.

    IVR dead time runs first.  Each quantum then stays inside one phase
    segment and one noise chunk and is solved by the reference solver.
    Quanta run until the kernel ends or one no longer fits the time
    left; that one runs cut short, and the rest of the epoch is idle.
    Returns the activity vector and the instructions executed.
    """
    arch, cursor, noise = cluster.arch, cluster.cursor, cluster.noise
    freq = float(arch.vf_table[cluster.level].frequency_hz)
    dead = min(cluster._pending_transition_s, epoch_s)
    cluster._pending_transition_s -= dead
    activity = np.zeros(NUM_ACTIVITY_SLOTS)
    activity[A_CYCLES] = dead * freq
    elapsed, busy, bw_time, instructions = dead, 0.0, 0.0, 0.0
    ci = noise.chunk_instructions
    while not cursor.finished and elapsed < epoch_s - 1e-15:
        phase = cursor.current_phase
        length = float(phase.instructions)
        pos = cursor.global_instructions_done
        chunk = int(pos // ci)
        b = min(length - cursor.instructions_done,
                float((chunk + 1) * ci) - pos)
        warp, miss, cpi = noise.multipliers(chunk)
        sol = _reference_solve(arch, phase, freq, warp, miss, cpi)
        row = quantum_rows_batch(arch, phase_params_row(phase)[None, :],
                                 _solution_columns(sol))[0]
        t = (b / sol.ipc) / freq
        cut = not t <= epoch_s - elapsed
        if cut:
            t = epoch_s - elapsed
            b = (t * freq) * sol.ipc
            if b <= 0:
                break
        activity += row[:NUM_ACTIVITY_SLOTS] * b
        busy += t
        bw_time += t * row[QR_BW_UTIL]
        elapsed += t
        instructions += b
        done = cursor.instructions_done + b
        if done >= length - 1e-9:
            cursor._completed_instructions += length
            cursor.segment_index += 1
            done = 0.0
        cursor.instructions_done = done
        if cut:
            break
    if elapsed < epoch_s:
        activity[A_CYCLES] += (epoch_s - elapsed) * freq
    activity[A_BUSY_S] = busy
    activity[A_BW_UTIL_TIME] = bw_time
    return activity, instructions


_WALK_ARCHES = (titan_x_config(), small_test_config(num_clusters=2))
_WALK_PHASES = (compute_phase, memory_phase, balanced_phase, divergent_phase)
_NUM_LEVELS = ARCH.vf_table.num_levels


@st.composite
def walk_cases(draw):
    """Clusters (kernel, arch, noise, cache group) and an epoch schedule
    of (length, accumulate, per-cluster level)."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        phases = [draw(st.sampled_from(_WALK_PHASES))(
                      f"w{k}", draw(st.integers(300, 12_000)))
                  for k in range(draw(st.integers(1, 3)))]
        specs.append((
            KernelProfile("walk", phases,
                          iterations=draw(st.integers(1, 3))),
            draw(st.sampled_from(_WALK_ARCHES)),
            draw(st.sampled_from((0.0, 0.05, 0.3))),
            draw(st.integers(64, 2048)),
            draw(st.floats(0.0, 3_000.0)),
            draw(st.integers(0, 1)),
        ))
    epochs = [(us(draw(st.floats(0.05, 6.0))), draw(st.booleans()),
               [draw(st.integers(0, _NUM_LEVELS - 1)) for _ in specs])
              for _ in range(draw(st.integers(1, 8)))]
    return specs, epochs


def _bits(value):
    return np.float64(value).tobytes()


def _cursor_bits(cluster):
    cursor = cluster.cursor
    return (cursor.segment_index, _bits(cursor.instructions_done),
            _bits(cursor._completed_instructions),
            _bits(cluster._pending_transition_s))


def _check_walk(case):
    specs, epochs = case
    shared = [SolutionCache(), SolutionCache()]
    reference, alone, batched = [], [], []
    for index, (kernel, arch, sigma, chunk, skew, group) in enumerate(specs):
        with mock.patch.object(WorkloadNoise, "CHUNK_INSTRUCTIONS", chunk):
            noise = WorkloadNoise(stream("walk", index), sigma=sigma)
        for copies, cache in ((reference, None), (alone, None),
                              (batched, shared[group])):
            copies.append(ClusterState(arch, kernel, noise,
                                       skew_instructions=skew,
                                       solution_cache=cache))
    for epoch_s, accumulate, levels in epochs:
        for copies in (reference, alone, batched):
            for cluster, level in zip(copies, levels):
                cluster.set_level(level)
        expected = [_reference_epoch(cluster, epoch_s)
                    for cluster in reference]
        solo = [run_epoch_batch([cluster], epoch_s, accumulate=accumulate)
                for cluster in alone]
        stack = run_epoch_batch(batched, epoch_s, accumulate=accumulate)
        for i, (activity, instructions) in enumerate(expected):
            for result, row, cluster in ((solo[i], 0, alone[i]),
                                         (stack, i, batched[i])):
                if accumulate:
                    assert (result.matrix[row].tobytes()
                            == activity.tobytes())
                else:
                    assert result.matrix is None
                assert _bits(result.instructions[row]) == _bits(instructions)
                assert bool(result.finished[row]) == reference[i].finished
                assert _cursor_bits(cluster) == _cursor_bits(reference[i])


@given(walk_cases())
@settings(max_examples=100, deadline=None)
def test_engine_matches_reference_stepper(case):
    """Every cluster, alone or in a mixed batch, reproduces the
    one-quantum-at-a-time reference bit for bit."""
    _check_walk(case)


@pytest.mark.slow
@given(walk_cases())
@settings(max_examples=500, deadline=None)
def test_engine_matches_reference_stepper_thoroughly(case):
    _check_walk(case)



def test_walk_probes_each_quantum_key_once(monkeypatch):
    """Epoch after epoch at one level, no (segment phase, noise chunk)
    solve key is probed twice: a cut quantum and the quanta after it
    are not enumerated again."""
    probed = []
    probe = SolutionCache.probe_batch

    def spy(self, keys, out):
        probed.extend(keys)
        return probe(self, keys, out)

    monkeypatch.setattr(SolutionCache, "probe_batch", spy)
    kernel = KernelProfile("once", [compute_phase("c", 9_000),
                                    memory_phase("m", 7_000)],
                           iterations=4)
    monkeypatch.setattr(WorkloadNoise, "CHUNK_INSTRUCTIONS", 512)
    noise = WorkloadNoise(stream("once", 5), sigma=0.1)
    cluster = ClusterState(ARCH, kernel, noise)
    cluster.set_level(2)
    for _ in range(24):
        run_epoch_batch([cluster], us(1.7))
    assert not cluster.finished
    assert len(probed) > 24
    assert len(probed) == len(set(probed))
