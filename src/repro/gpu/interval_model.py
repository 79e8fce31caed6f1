"""Interval (quantum) throughput model.

This is the analytical core of the GPGPU-Sim surrogate.  For a cluster
executing a stationary :class:`~repro.gpu.phases.Phase` at a given core
frequency, it computes sustained IPC and a stall-slot breakdown using
Hong–Kim-style MWP/CWP reasoning:

* A single warp completes one instruction every
  ``c_solo = cpi_exec_eff + m * L(f) / mlp`` cycles, where ``m`` is the
  memory-instruction fraction, ``L(f)`` the average memory latency in
  core cycles, and ``mlp`` the per-warp memory-level parallelism.
* ``W`` concurrent warps overlap their latencies, so the cluster issues
  ``min(issue_width, W / c_solo)`` instructions per cycle.
* DRAM bandwidth caps the achievable rate: miss traffic cannot exceed
  the cluster's fair share of DRAM bandwidth.

Because ``L(f)`` contains the memory-domain latency *in nanoseconds*
converted at the core clock, lowering the frequency shrinks the memory
wait measured in cycles: memory-bound phases lose almost no wall-clock
performance at low V/f points, which is exactly the headroom every DVFS
policy in the paper competes to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import SimulationError
from .arch import GPUArchConfig
from .phases import INSTRUCTION_CLASSES, Phase

#: Extra issue cost per unit of divergence, as a fraction of cpi_exec.
_DIVERGENCE_CPI_FACTOR = 0.6
#: Cycles of re-convergence / barrier wait charged per sync instruction.
_SYNC_COST_CYCLES = 8.0
#: Fraction of a store's miss latency that write buffering cannot hide.
_STORE_EXPOSURE = 0.45


@dataclass(frozen=True)
class ThroughputSolution:
    """Solved steady-state behaviour of one phase at one frequency.

    All per-instruction quantities are in core cycles at the solved
    frequency.  ``stall_*`` values are *issue-slot* counts per executed
    instruction, so ``issued + sum(stalls) == issue_width / ipc``.
    """

    frequency_hz: float
    ipc: float
    cycles_per_instruction: float
    mem_latency_cycles: float
    bandwidth_utilization: float
    bandwidth_limited: bool
    stall_mem_load: float
    stall_mem_other: float
    stall_control: float
    stall_sync: float
    stall_data: float
    stall_idle: float

    def time_for_instructions(self, instructions: float) -> float:
        """Wall-clock seconds to execute ``instructions`` at this rate."""
        if instructions < 0:
            raise SimulationError("instruction count cannot be negative")
        cycles = instructions / self.ipc
        return cycles / self.frequency_hz


# ---------------------------------------------------------------------------
# The solver: one stack of solve inputs per call
# ---------------------------------------------------------------------------
#: Column layout of a *phase-parameter row*: every phase field the
#: solver (and the per-instruction activity row) reads, flattened to
#: float64 so a stack of phases becomes a ``(n, NUM_PHASE_PARAMS)``
#: matrix that :func:`solve_throughput_batch` consumes directly.
PP_CPI_EXEC = 0
PP_MLP = 1
PP_L1_MISS = 2
PP_L2_MISS = 3
PP_ACTIVE_WARPS = 4
PP_DIVERGENCE = 5
PP_INSTRUCTIONS = 6
PP_LOAD_FRAC = 7
PP_STORE_FRAC = 8
PP_BRANCH_FRAC = 9
PP_SYNC_FRAC = 10
PP_CLASS0 = 11                     # 9 instruction classes: columns 11..19
NUM_PHASE_PARAMS = PP_CLASS0 + len(INSTRUCTION_CLASSES)

PP_CLASS_SLICE = slice(PP_CLASS0, PP_CLASS0 + len(INSTRUCTION_CLASSES))

#: id() -> (phase, row): holding the phase pins its id, exactly like the
#: SolutionCache key memos.  Bounded: cleared wholesale when it grows
#: past a few thousand distinct phase objects.
_PHASE_PARAM_ROWS: dict[int, tuple] = {}
_PHASE_PARAM_ROWS_MAX = 4096


def phase_params_row(phase: Phase) -> np.ndarray:
    """The phase's solver inputs as one float64 row (memoised, read-only
    by convention)."""
    cached = _PHASE_PARAM_ROWS.get(id(phase))
    if cached is not None and cached[0] is phase:
        return cached[1]
    row = np.empty(NUM_PHASE_PARAMS, dtype=np.float64)
    mix = phase.mix
    row[PP_CPI_EXEC] = phase.cpi_exec
    row[PP_MLP] = phase.mlp
    row[PP_L1_MISS] = phase.l1_miss_rate
    row[PP_L2_MISS] = phase.l2_miss_rate
    row[PP_ACTIVE_WARPS] = phase.active_warps
    row[PP_DIVERGENCE] = phase.divergence
    row[PP_INSTRUCTIONS] = phase.instructions
    row[PP_LOAD_FRAC] = phase.load_fraction
    row[PP_STORE_FRAC] = phase.store_fraction
    row[PP_BRANCH_FRAC] = phase.branch_fraction
    row[PP_SYNC_FRAC] = mix.get("sync", 0.0)
    for offset, cls in enumerate(INSTRUCTION_CLASSES):
        row[PP_CLASS0 + offset] = mix.get(cls, 0.0)
    if len(_PHASE_PARAM_ROWS) >= _PHASE_PARAM_ROWS_MAX:
        _PHASE_PARAM_ROWS.clear()
    _PHASE_PARAM_ROWS[id(phase)] = (phase, row)
    return row


#: Column layout of a cached solve (:meth:`BatchSolution.columns`):
#: the solver outputs the epoch engine reads — CPI, the six stall
#: components, memory latency, IPC and bandwidth utilisation.
SOL_CPI = 0
SOL_STALL_MEM_LOAD = 1
SOL_STALL_MEM_OTHER = 2
SOL_STALL_CONTROL = 3
SOL_STALL_SYNC = 4
SOL_STALL_DATA = 5
SOL_STALL_IDLE = 6
SOL_MEM_LATENCY = 7
SOL_IPC = 8
SOL_BW_UTIL = 9
NUM_SOLUTION_COLUMNS = 10


@dataclass
class BatchSolution:
    """Struct-of-arrays result of :func:`solve_throughput_batch`.

    Each field is a ``(n,)`` array whose element ``j`` is the solve of
    input row ``j``; :func:`solve_throughput` returns one row as a
    :class:`ThroughputSolution`.
    """

    frequency_hz: np.ndarray
    ipc: np.ndarray
    cycles_per_instruction: np.ndarray
    mem_latency_cycles: np.ndarray
    bandwidth_utilization: np.ndarray
    bandwidth_limited: np.ndarray
    stall_mem_load: np.ndarray
    stall_mem_other: np.ndarray
    stall_control: np.ndarray
    stall_sync: np.ndarray
    stall_data: np.ndarray
    stall_idle: np.ndarray

    def columns(self) -> np.ndarray:
        """The ``(n, NUM_SOLUTION_COLUMNS)`` matrix the cache stores."""
        return np.stack((self.cycles_per_instruction, self.stall_mem_load,
                         self.stall_mem_other, self.stall_control,
                         self.stall_sync, self.stall_data, self.stall_idle,
                         self.mem_latency_cycles, self.ipc,
                         self.bandwidth_utilization), axis=1)


def solve_throughput_batch(arch: GPUArchConfig, params: np.ndarray,
                           frequency_hz: np.ndarray,
                           warp_multiplier: np.ndarray,
                           miss_multiplier: np.ndarray,
                           cpi_multiplier: np.ndarray) -> BatchSolution:
    """Solve the steady-state throughput of a stack of solve inputs.

    ``params`` is a ``(n, NUM_PHASE_PARAMS)`` matrix of
    :func:`phase_params_row` rows; the other arguments are ``(n,)``
    arrays: the core frequency and the three behavioural jitter
    multipliers (from :class:`~repro.gpu.noise.WorkloadNoise`, 1.0 when
    noiseless).  Raises :class:`SimulationError` on non-physical inputs.

    Only elementwise ops are used, and IEEE-754 add/sub/mul/div/min/max
    are correctly rounded per element, so row ``j``'s bits depend on
    row ``j``'s inputs alone and equal the same expressions evaluated
    as a chain of Python float ops.  (There are no reductions or matrix
    products here — those are the only numpy stages whose grouping can
    differ from scalar evaluation.)
    """
    p = np.asarray(params, dtype=np.float64)
    f = np.asarray(frequency_hz, dtype=np.float64)
    wm = np.asarray(warp_multiplier, dtype=np.float64)
    mm = np.asarray(miss_multiplier, dtype=np.float64)
    cm = np.asarray(cpi_multiplier, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != NUM_PHASE_PARAMS:
        raise SimulationError(
            f"expected params of shape (n, {NUM_PHASE_PARAMS}), got {p.shape}")
    if f.size and f.min() <= 0:
        raise SimulationError("frequency must be positive")
    if wm.size and min(wm.min(), mm.min(), cm.min()) <= 0:
        raise SimulationError("jitter multipliers must be positive")

    warps = np.minimum(float(arch.max_warps_per_cluster),
                       np.maximum(1.0, p[:, PP_ACTIVE_WARPS] * wm))
    l1_miss = np.minimum(1.0, p[:, PP_L1_MISS] * mm)
    l2_miss = np.minimum(1.0, p[:, PP_L2_MISS])
    div_term = 1.0 + _DIVERGENCE_CPI_FACTOR * p[:, PP_DIVERGENCE]
    cpi = (p[:, PP_CPI_EXEC] * cm) * div_term

    beyond_l1_ns = arch.l2_latency_ns + l2_miss * arch.dram_latency_ns
    beyond_l1_cycles = beyond_l1_ns * 1e-9 * f
    mem_latency = arch.l1_hit_latency_cycles + l1_miss * beyond_l1_cycles
    load_wait = p[:, PP_LOAD_FRAC] * mem_latency / p[:, PP_MLP]
    store_wait = (p[:, PP_STORE_FRAC] * mem_latency * _STORE_EXPOSURE
                  / p[:, PP_MLP])
    sync_wait = p[:, PP_SYNC_FRAC] * _SYNC_COST_CYCLES
    c_solo = cpi + load_wait + store_wait + sync_wait

    ipc_overlap = np.minimum(float(arch.issue_width), warps / c_solo)

    # DRAM bandwidth cap: only traffic that misses L2 reaches DRAM.
    # Loads miss L1 then L2; ~90 % of global stores write through L1
    # (see cluster accounting) and miss L2 at the phase's L2 miss rate.
    load_share = p[:, PP_LOAD_FRAC] * l1_miss * l2_miss
    store_share = p[:, PP_STORE_FRAC] * 0.9 * l2_miss
    bytes_per_inst = (load_share + store_share) * arch.cache_line_bytes
    has_bytes = bytes_per_inst > 0
    safe_bw_denom = np.where(has_bytes, f * bytes_per_inst, 1.0)
    # A tiny byte rate overflows the quotient to inf, as a Python float
    # division would: the phase is then not bandwidth-bound.
    with np.errstate(over="ignore"):
        bw_quotient = arch.cluster_bandwidth_bytes_per_s / safe_bw_denom
    ipc_bandwidth = np.where(has_bytes, bw_quotient, np.inf)

    bandwidth_limited = ipc_bandwidth < ipc_overlap
    ipc = np.maximum(1e-9, np.minimum(ipc_overlap, ipc_bandwidth))
    cycles_per_instruction = 1.0 / ipc

    traffic = ipc * f * bytes_per_inst
    bandwidth_utilization = np.minimum(
        1.0, traffic / arch.cluster_bandwidth_bytes_per_s)

    # Stall-slot attribution: issue slots consumed per executed
    # instruction, beyond the one that issued it.
    slots_per_inst = arch.issue_width * cycles_per_instruction
    stall_total = np.maximum(0.0, slots_per_inst - 1.0)

    control_contrib = (cpi * _DIVERGENCE_CPI_FACTOR * p[:, PP_DIVERGENCE]
                       / div_term + p[:, PP_BRANCH_FRAC])
    data_contrib = np.maximum(0.0, cpi - control_contrib - 1.0)
    # Queueing time beyond the raw latency shows up as extra memory
    # stalls, charged in proportion to load/store traffic.  1/inf ==
    # 0.0 exactly, so the unlimited elements contribute no queueing
    # term and the mask below discards them anyway.
    extra = np.maximum(0.0, 1.0 / ipc_bandwidth - 1.0 / ipc_overlap) * warps
    denom = load_share + store_share
    limited = bandwidth_limited & (denom > 0)
    safe_denom = np.where(limited, denom, 1.0)
    mem_load_contrib = np.where(
        limited, load_wait + extra * load_share / safe_denom, load_wait)
    mem_other_contrib = np.where(
        limited, store_wait + extra * store_share / safe_denom, store_wait)
    sync_contrib = sync_wait
    contrib_sum = (mem_load_contrib + mem_other_contrib + control_contrib
                   + sync_contrib + data_contrib)

    # With ample warps much of the latency is overlapped and shows up
    # as idle-free issue: 92 % of the stall slots are observable and
    # split by contribution, the rest idle.
    positive = contrib_sum > 0
    safe_sum = np.where(positive, contrib_sum, 1.0)
    part_mem_load = np.where(
        positive, stall_total * mem_load_contrib / safe_sum * 0.92, 0.0)
    part_mem_other = np.where(
        positive, stall_total * mem_other_contrib / safe_sum * 0.92, 0.0)
    part_control = np.where(
        positive, stall_total * control_contrib / safe_sum * 0.92, 0.0)
    part_sync = np.where(
        positive, stall_total * sync_contrib / safe_sum * 0.92, 0.0)
    part_data = np.where(
        positive, stall_total * data_contrib / safe_sum * 0.92, 0.0)
    idle = np.where(
        positive,
        stall_total - (part_mem_load + part_mem_other + part_control
                       + part_sync + part_data),
        stall_total)

    return BatchSolution(
        frequency_hz=f,
        ipc=ipc,
        cycles_per_instruction=cycles_per_instruction,
        mem_latency_cycles=mem_latency,
        bandwidth_utilization=bandwidth_utilization,
        bandwidth_limited=bandwidth_limited,
        stall_mem_load=part_mem_load,
        stall_mem_other=part_mem_other,
        stall_control=part_control,
        stall_sync=part_sync,
        stall_data=part_data,
        stall_idle=np.maximum(0.0, idle),
    )


_SOLUTION_FIELDS = tuple(field.name for field in fields(ThroughputSolution))


def solve_throughput(arch: GPUArchConfig, phase: Phase, frequency_hz: float,
                     *, warp_multiplier: float = 1.0,
                     miss_multiplier: float = 1.0,
                     cpi_multiplier: float = 1.0) -> ThroughputSolution:
    """Solve ``phase`` at ``frequency_hz``: a one-row view of
    :func:`solve_throughput_batch` whose fields are Python scalars."""
    batch = solve_throughput_batch(
        arch, phase_params_row(phase)[None, :], [frequency_hz],
        [warp_multiplier], [miss_multiplier], [cpi_multiplier])
    return ThroughputSolution(**{name: getattr(batch, name)[0].item()
                                 for name in _SOLUTION_FIELDS})


def _arch_solve_key(arch: GPUArchConfig) -> tuple:
    """The subset of architecture constants that determine a solve."""
    return (
        arch.issue_width,
        arch.max_warps_per_cluster,
        arch.l1_hit_latency_cycles,
        arch.l2_latency_ns,
        arch.dram_latency_ns,
        arch.cluster_bandwidth_bytes_per_s,
        arch.cache_line_bytes,
    )


def _phase_solve_key(phase: Phase) -> tuple:
    """The subset of phase fields that determine a solve."""
    mix = phase.mix
    return (
        phase.cpi_exec,
        phase.mlp,
        phase.l1_miss_rate,
        phase.l2_miss_rate,
        phase.active_warps,
        phase.divergence,
    ) + tuple(mix.get(cls, 0.0) for cls in INSTRUCTION_CLASSES)


#: Bit widths of the packed solve key's fields.  A key is one int:
#: ``arch | phase | frequency | noise track | noise chunk``, most
#: significant field first; every field is a small process-local id
#: except the chunk, which is the noise-chunk index itself.
KEY_ARCH_BITS = 20
KEY_PHASE_BITS = 20
KEY_FREQ_BITS = 16
KEY_NOISE_BITS = 32
KEY_CHUNK_BITS = 32
#: Offset of the phase field, which the engine ORs in per segment.
KEY_PHASE_SHIFT = KEY_FREQ_BITS + KEY_NOISE_BITS + KEY_CHUNK_BITS
#: Largest noise-chunk index a key can hold.
KEY_CHUNK_MAX = (1 << KEY_CHUNK_BITS) - 1

_KEY_FIELDS = (("arch", KEY_ARCH_BITS), ("phase", KEY_PHASE_BITS),
               ("frequency", KEY_FREQ_BITS), ("noise", KEY_NOISE_BITS),
               ("chunk", KEY_CHUNK_BITS))


def pack_solve_key(arch_id: int, phase_id: int, freq_id: int,
                   noise_id: int, chunk: int) -> int:
    """Pack the five solve-key fields into one int.

    Raises :class:`SimulationError` when a field does not fit its
    width, so two distinct inputs can never share a key.
    """
    # ``value >> bits`` is non-zero exactly when value is outside
    # [0, 2**bits) (a negative value shifts to -1).
    if (arch_id >> KEY_ARCH_BITS or phase_id >> KEY_PHASE_BITS
            or freq_id >> KEY_FREQ_BITS or noise_id >> KEY_NOISE_BITS
            or chunk >> KEY_CHUNK_BITS):
        for (name, bits), value in zip(_KEY_FIELDS, (arch_id, phase_id,
                                                     freq_id, noise_id,
                                                     chunk)):
            if not 0 <= value < (1 << bits):
                raise SimulationError(
                    f"solve-key {name} field {value} out of range "
                    f"[0, 2**{bits})")
    return ((((arch_id << KEY_PHASE_BITS | phase_id) << KEY_FREQ_BITS
              | freq_id) << KEY_NOISE_BITS | noise_id) << KEY_CHUNK_BITS
            | chunk)


#: Process-local interning of the derived arch/phase key tuples and of
#: the solved frequencies.  Keys embed the *interned id* (a small int)
#: instead of the 7/15-float tuple or the float itself, so a quantum's
#: key is one int OR and hashes for free.  The registries are
#: append-only and bijective for the life of the process (a handful of
#: arch/phase/frequency values exist per run); ids never leave the
#: process.
_SOLVE_KEY_IDS: dict[tuple, int] = {}
_FREQ_IDS: dict[float, int] = {}


def _intern(registry: dict, key, bits: int, what: str) -> int:
    kid = registry.get(key)
    if kid is None:
        kid = len(registry)
        if kid >> bits:
            raise SimulationError(
                f"more than 2**{bits} distinct {what} values in one process")
        registry[key] = kid
    return kid


def intern_solve_key(key: tuple) -> int:
    """Return the process-local id of a derived arch/phase key tuple."""
    return _intern(_SOLVE_KEY_IDS, key,
                   min(KEY_ARCH_BITS, KEY_PHASE_BITS), "arch/phase key")


def frequency_key_id(frequency_hz: float) -> int:
    """Return the process-local id of a solved frequency."""
    return _intern(_FREQ_IDS, frequency_hz, KEY_FREQ_BITS, "frequency")


#: Module-level id-pinned memos for the interned key ids, shared by
#: every cache (ids intern by value, so which memo derived them is
#: irrelevant — equal objects produce equal ids).  The batch engine
#: uses these to key clusters that may carry *different* cache objects.
_ARCH_KEY_MEMO: dict[int, tuple] = {}
_PHASE_KEY_MEMO: dict[int, tuple] = {}
_KEY_MEMO_MAX = 4096


def arch_solve_key_cached(arch: GPUArchConfig) -> int:
    """Memoised, interned :func:`_arch_solve_key` (id-pinned)."""
    cached = _ARCH_KEY_MEMO.get(id(arch))
    if cached is not None and cached[0] is arch:
        return cached[1]
    key = intern_solve_key(_arch_solve_key(arch))
    if len(_ARCH_KEY_MEMO) >= _KEY_MEMO_MAX:
        _ARCH_KEY_MEMO.clear()
    _ARCH_KEY_MEMO[id(arch)] = (arch, key)
    return key


def phase_solve_key_cached(phase: Phase) -> int:
    """Memoised, interned :func:`_phase_solve_key` (id-pinned)."""
    cached = _PHASE_KEY_MEMO.get(id(phase))
    if cached is not None and cached[0] is phase:
        return cached[1]
    key = intern_solve_key(_phase_solve_key(phase))
    if len(_PHASE_KEY_MEMO) >= _KEY_MEMO_MAX:
        _PHASE_KEY_MEMO.clear()
    _PHASE_KEY_MEMO[id(phase)] = (phase, key)
    return key


class SolutionCache:
    """Memoises interval-model solves in one contiguous float64 table.

    The epoch engine solves the interval model once per noise chunk of
    every segment it runs, yet its inputs are drawn from small discrete
    sets: the kernel's phase segments, the V/f table's frequencies, and
    the workload-position-indexed noise multiplier triples
    (deterministic per noise track and chunk, so a replay sees the
    exact same floats).  Replays of the same
    workload stretch — the datagen protocol replays every ~100 µs
    segment at all six operating points, and the Fig. 4 grid runs the
    baseline and every policy over one kernel and seed — re-solve
    identical inputs many times over.

    A key is one packed int (:func:`pack_solve_key`): the interned arch
    and phase keys (derived from exactly the fields
    :func:`solve_throughput` reads), the interned frequency, and the
    noise track's id plus the chunk index in place of the three
    multiplier floats.  Track ids are content-based (see
    :class:`~repro.gpu.noise.WorkloadNoise`): equal ids mean equal
    multipliers at every chunk, and flat tracks use id 0 and chunk 0.
    Because the key determines every input bit-exactly, a hit returns
    the identical solution a fresh solve would have produced: hit rates
    change wall-clock, never results.

    Each entry is one row of :data:`NUM_SOLUTION_COLUMNS` solver outputs
    (:meth:`BatchSolution.columns`) in a table indexed by a ``key ->
    row`` dict — about 190 bytes per entry.  Phase-constant quantum-row
    columns are rebuilt per refill wave by
    :func:`~repro.gpu.cluster.quantum_rows_batch`, never stored.
    """

    #: Entry budget; the cache is cleared wholesale when it fills
    #: (epoch-engine keys recur heavily, so anything smarter than a
    #: periodic flush buys nothing).
    DEFAULT_MAX_ENTRIES = 1 << 16
    #: Initial table rows; the table doubles up to ``max_entries``.
    _INITIAL_ROWS = 256

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise SimulationError("cache max_entries must be positive")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._index: dict[int, int] = {}
        self._table = np.empty(
            (min(self.max_entries, self._INITIAL_ROWS), NUM_SOLUTION_COLUMNS),
            dtype=np.float64)

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> None:
        """Drop all memoised rows (stats are kept)."""
        self._index.clear()

    def probe_batch(self, keys: list, out: np.ndarray) -> list:
        """Copy the solutions of cached ``keys`` into ``out`` rows.

        ``keys`` are packed solve keys; ``out`` is an ``(len(keys),
        NUM_SOLUTION_COLUMNS)`` buffer.  Returns ``(index, slot)`` pairs
        for the keys that missed; the caller solves those in one batch
        and hands the list back to :meth:`store_batch`.  Each miss
        *pre-assigns* its table row, so the key is hashed once per miss.
        A pending row re-encountered before its fill (a duplicate key
        within one wave, or a row left behind by an aborted batch)
        counts as a fresh miss and is simply re-solved.  Every hit is
        gathered with one fancy-index copy.
        """
        index = self._index
        get = index.get
        used = fresh = len(index)
        flushed = False
        max_entries = self.max_entries
        missing: list = []
        append = missing.append
        hit_at: list[int] = []
        hit_slots: list[int] = []
        for position, key in enumerate(keys):
            slot = get(key)
            if slot is None:
                if used >= max_entries:
                    self.evictions += used
                    index.clear()
                    used = fresh = 0
                    flushed = True
                    # Rows handed out before the flush are reused below;
                    # their solves must not be stored.
                    missing = [(j, -1) for j, _ in missing]
                    append = missing.append
                index[key] = used
                append((position, used))
                used += 1
            elif slot >= fresh:
                append((position, slot))
            else:
                hit_at.append(position)
                hit_slots.append(slot)
        table = self._table
        if used > len(table):
            grown = np.empty((min(self.max_entries,
                                  max(used, 2 * len(table))),
                              NUM_SOLUTION_COLUMNS), dtype=np.float64)
            grown[:len(table)] = table
            table = self._table = grown
        if hit_at:
            rows = table[hit_slots]
            # A NaN CPI marks a row an aborted batch never filled.
            pending = np.isnan(rows[:, SOL_CPI])
            if pending.any():
                for j in np.flatnonzero(pending).tolist():
                    append((hit_at[j], -1 if flushed else hit_slots[j]))
                keep = ~pending
                out[np.array(hit_at)[keep]] = rows[keep]
            else:
                out[hit_at] = rows
        fresh_slots = [slot for _, slot in missing if slot >= fresh]
        if fresh_slots:
            table[fresh_slots, SOL_CPI] = np.nan
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return missing

    def store_batch(self, missing: list, rows: np.ndarray) -> None:
        """Fill the pre-assigned rows of a batch-solved miss set.

        ``missing`` is :meth:`probe_batch`'s return value and ``rows[j]``
        the solved :data:`NUM_SOLUTION_COLUMNS` row of its ``j``-th key.
        Counting and capacity eviction happened in :meth:`probe_batch`;
        this is one table assignment (no key hashing at all).
        """
        slots = np.fromiter((slot for _, slot in missing), dtype=np.intp,
                            count=len(missing))
        kept = slots >= 0
        if kept.all():
            self._table[slots] = rows
        else:
            self._table[slots[kept]] = rows[kept]


def frequency_sensitivity(arch: GPUArchConfig, phase: Phase,
                          frequency_from_hz: float,
                          frequency_to_hz: float) -> float:
    """Relative slowdown moving ``phase`` between two frequencies.

    Returns ``T(to) / T(from)`` for a fixed instruction count.  A value
    of 1.0 means the phase is completely frequency-insensitive
    (memory-bound); ``f_from / f_to`` is the fully compute-bound limit.
    """
    frequencies = np.array([frequency_from_hz, frequency_to_hz],
                           dtype=np.float64)
    ones = np.ones(2)
    batch = solve_throughput_batch(
        arch, np.broadcast_to(phase_params_row(phase), (2, NUM_PHASE_PARAMS)),
        frequencies, ones, ones, ones)
    times = (float(phase.instructions) / batch.ipc) / frequencies
    return float(times[1] / times[0])
