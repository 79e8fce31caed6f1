"""The epoch engine: an exact quantum walk over per-cluster solve windows.

:func:`run_epoch_batch` advances any number of :class:`~repro.gpu.
cluster.ClusterState` objects through one DVFS epoch; it is the only
way simulated time moves forward.  A quantum stays inside one phase
segment and one noise chunk, so its *boundaries* depend only on
workload position, never on time or frequency, and its interval-model
solve depends only on (arch, segment phase, frequency, noise track,
chunk).

Each cluster walks its quanta one at a time from its real cursor with
Python floats: the position gives the chunk and the quantum's length
``b``, the cluster's :class:`SolveWindow` for the segment's key gives
the quantum's IPC, and ``t = (b / ipc) / f`` is added to the elapsed
time until a quantum no longer fits.  That quantum runs cut to the
time left and ends the walk, so nothing is enumerated, probed or
solved that the epoch does not run.

A solve window holds the solved quantum rows of consecutive noise
chunks of one (arch, phase, frequency id, noise track) key.  A cluster
keeps its windows by key, across epochs: the next epoch at the same
operating point resumes inside them, and a return to an earlier level
can too.  Every read looks the window up by the segment's full key and
checks the chunk against the window's range, so a window is only ever
read for the key it was solved for; correctness needs no invalidation.
When clusters run off their windows, one wave per (solution cache,
arch) group refills them all through the cache's batched probe, one
:func:`~repro.gpu.interval_model.solve_throughput_batch` call for the
misses and one :func:`~repro.gpu.cluster.quantum_rows_batch` call.

Bit-stability rules
-------------------
A cluster's results never depend on which other clusters share its
call (a lone cluster, a whole GPU, or every co-simulated task of a
fused campaign), so every batching above the engine is free.  The walk
works on Python floats: positions, chunk indices (CPython
``float.__floordiv__`` is not ``floor(x / y)`` in all edge cases, so
``//`` stays in Python), quantum times, the elapsed, busy and
bandwidth-weighted times and the instruction count, each added one
quantum at a time.  The activity slots are built after the walk from
one gather of the rows of the quanta that ran and elementwise
``row * b`` products, then summed per cluster strictly in quantum
order: one elementwise add per quantum step across all clusters.
``np.sum``/``np.add.reduce`` (pairwise/unrolled grouping) and matrix
products are banned from this module; per-task reductions stay with
the callers (simulator / fused engine) on contiguous row slices, which
keeps BLAS out of the quantum path entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import SimulationError
from .cluster import (A_BUSY_S, A_BW_UTIL_TIME, A_CYCLES, NUM_ACTIVITY_SLOTS,
                      QR_BW_UTIL, QR_IPC, QROW_WIDTH, ClusterState,
                      quantum_rows_batch)
from .interval_model import (KEY_CHUNK_MAX, NUM_SOLUTION_COLUMNS,
                             SolutionCache, arch_solve_key_cached,
                             frequency_key_id, pack_solve_key,
                             phase_params_row, phase_solve_key_cached,
                             solve_throughput_batch)

#: Epoch-boundary slack: a cluster within this of the budget is done.
_EPOCH_EPS = 1e-15
#: Segment-completion slack on the instructions done in a segment.
_SEGMENT_EPS = 1e-9
#: Window sizing.  A refill solves the chunks the rest of the epoch is
#: expected to run, plus ``_WINDOW_MARGIN``.  The expectation is the
#: time left at the IPC of the cluster's latest quantum and the faster
#: of that quantum's clock and the current one (``_FIRST_CHUNKS`` for a
#: cluster that has not run yet), doubled when an earlier refill of the
#: same epoch already fell short.  So a steady epoch needs one refill,
#: and a level change wastes few solves.
_WINDOW_MARGIN = 3
_FIRST_CHUNKS = 8


class SolveWindow(NamedTuple):
    """Solved quantum rows for consecutive noise chunks of one key.

    A cluster keeps its windows in ``solve_windows``, a dict keyed by
    the (arch, phase, frequency, noise track) id tuple they were solved
    for, and ``key_base`` is that key packed for chunk 0.  Chunk
    ``first + j`` (for ``first <= chunk < stop``) is row ``base + j`` of
    the refill wave's ``rows`` matrix, whose IPC and
    bandwidth-utilisation columns ``ipc``/``bw`` repeat as Python
    floats for the walk.
    """

    first: int
    stop: int
    rows: np.ndarray
    base: int
    ipc: list[float]
    bw: list[float]
    key_base: int


@dataclass
class BatchEpochResult:
    """Per-cluster outcome of one batched epoch.

    ``matrix`` holds the accumulated activity vectors (``(n,
    NUM_ACTIVITY_SLOTS)``, row order = cluster order); it is ``None``
    in advance-only mode.  ``instructions`` counts instructions
    executed this epoch and ``finished`` flags clusters whose kernel
    has fully executed — both are tracked in every mode.
    """

    matrix: np.ndarray | None
    instructions: np.ndarray
    finished: np.ndarray


def _phase_table(kernel, tables: dict) -> tuple:
    """``(parameter rows, phase ids, lengths)`` of the phases of one
    iteration of ``kernel``, memoised in ``tables`` for the length of
    one call; segment ``s`` runs phase ``s % len(kernel.phases)``."""
    table = tables.get(id(kernel))
    if table is None:
        phases = kernel.phases
        table = tables[id(kernel)] = (
            [phase_params_row(phase) for phase in phases],
            [phase_solve_key_cached(phase) for phase in phases],
            [float(phase.instructions) for phase in phases])
    return table


def _plan_windows(cluster: ClusterState, budget: int, key: tuple, seg: int,
                  start: float, done: float, table: tuple,
                  frequency_hz: float) -> list[tuple]:
    """The windows a refill solves for ``cluster`` at its walk position.

    The cluster walks segment ``seg`` (solve key ``key``), which starts
    at instruction ``start`` and has ``done`` done; ``table`` is its
    kernel's :func:`_phase_table`.  The first window starts at the chunk
    holding that position; later ones cover the next runs of segments
    that share a key, one window per run, until ``budget`` chunks are
    planned.  Runs that already have a window covering their first
    chunk are skipped, and once the cluster holds several windows, those
    wholly behind the position are dropped.  Returns ``(windows, key,
    key_base, first, count, tracks, params, frequency)`` plans;
    ``tracks`` is None for a flat noise track.
    """
    noise = cluster.noise
    ci = noise.chunk_instructions
    windows = cluster.solve_windows
    phase_rows, phase_ids, lengths = table
    num_phases = len(lengths)
    num_segments = cluster.cursor.kernel.num_segments
    pos = start + done
    here = int(pos // ci)
    if len(windows) > 1:
        for stale in [k for k, window in windows.items()
                      if window.stop <= here]:
            del windows[stale]
    tracks = None if noise.sigma == 0.0 else noise.tracks()
    arch_id, phase_id, freq_id, track = key
    plans: list[tuple] = []
    planned: list[int] = []
    while budget > 0 and seg < num_segments:
        p = seg % num_phases
        end = start + lengths[p]
        seg += 1
        while seg < num_segments and phase_ids[seg % num_phases] == phase_id:
            end += lengths[seg % num_phases]
            seg += 1
        if phase_id in planned:
            break
        planned.append(phase_id)
        key = (arch_id, phase_id, freq_id, track)
        # Up to the chunk holding the run's last instruction (at least
        # the chunk holding the position).
        first = int(pos // ci)
        count = min(budget, max(1, int(-(-end // ci)) - first))
        budget -= count
        window = windows.get(key)
        if (window is None or len(planned) == 1
                or not window.first <= first < window.stop):
            if tracks is not None and first + count > len(tracks[0]):
                if first + count > KEY_CHUNK_MAX:
                    raise SimulationError(
                        f"noise chunk {first + count - 1} exceeds the solve "
                        f"key's chunk field")
                noise.multipliers(first + count - 1)
            plans.append((windows, key,
                          pack_solve_key(*key, 0) if window is None
                          else window.key_base,
                          first, count, tracks, phase_rows[p], frequency_hz))
        pos = start = end
        phase_id = phase_ids[seg % num_phases]
    return plans


def _solve_wave(cache: SolutionCache, arch, plans: list[tuple]) -> np.ndarray:
    """The quantum rows of every chunk the plans cover, in plan order.

    Each chunk probes its key; a flat track's chunks all share the key of
    chunk 0.  Hits are gathered straight from the cache table; the
    misses are solved in one stack and stored in one go.
    """
    probe_keys: list[int] = []
    for _, _, base_key, first, count, tracks, _, _ in plans:
        if tracks is None:
            probe_keys += [base_key] * count
        else:
            probe_keys.extend(range(base_key + first,
                                    base_key + first + count))
    counts = [plan[4] for plan in plans]
    params = np.repeat(np.array([plan[6] for plan in plans]), counts, axis=0)
    solutions = np.empty((len(probe_keys), NUM_SOLUTION_COLUMNS),
                         dtype=np.float64)
    inputs: list[np.ndarray] = []

    def _solve(keys: list[int], at: np.ndarray | None,
               out: np.ndarray) -> None:
        # ``keys[k]`` is the key of chunk ``at[k]`` (chunk ``k`` when
        # ``at`` is None).
        missing = cache.probe_batch(keys, out)
        if not missing:
            return
        if not inputs:
            # Per chunk: frequency and the noise multipliers (warp,
            # miss, cpi); a flat track's are one.
            warp: list[float] = []
            miss: list[float] = []
            cpi: list[float] = []
            for _, _, _, first, count, tracks, _, _ in plans:
                if tracks is None:
                    warp += [1.0] * count
                    miss += [1.0] * count
                    cpi += [1.0] * count
                else:
                    stop = first + count
                    warp.extend(tracks[0][first:stop])
                    miss.extend(tracks[1][first:stop])
                    cpi.extend(tracks[2][first:stop])
            inputs.append(np.repeat(np.array([plan[7] for plan in plans]),
                                    counts))
            inputs.extend(np.array((warp, miss, cpi)))
        local = np.array([j for j, _ in missing], dtype=np.intp)
        rows_at = local if at is None else at[local]
        solved = solve_throughput_batch(
            arch, params[rows_at],
            *(values[rows_at] for values in inputs)).columns()
        out[local] = solved
        cache.store_batch(missing, solved)

    if len(set(probe_keys)) == len(probe_keys):
        _solve(probe_keys, None, solutions)
    else:
        # Repeated keys (a flat track, or co-simulated copies of one run
        # in a fused group) are probed after their first copy is solved
        # and stored, so they hit.
        first_at: dict[int, int] = {}
        is_first = np.array([first_at.setdefault(key, j) == j
                             for j, key in enumerate(probe_keys)])
        for at in (np.flatnonzero(is_first), np.flatnonzero(~is_first)):
            part = np.empty((len(at), NUM_SOLUTION_COLUMNS), dtype=np.float64)
            _solve([probe_keys[j] for j in at.tolist()], at, part)
            solutions[at] = part
    return quantum_rows_batch(arch, params, solutions)


def _refill(clusters: list[ClusterState], dry: list[int],
            budgets: list[int], keys: list[tuple], freq: list[float],
            seg: list[int], start: list[float], done: list[float],
            tables: dict) -> None:
    """Refill the windows of every cluster in ``dry`` (``budgets[j]``
    chunks for the ``j``-th) at its walk position, in one wave per
    group of clusters sharing (cache, arch); see :func:`_plan_windows`
    and :func:`_solve_wave`."""
    groups: dict[tuple[int, int], tuple] = {}
    for i, budget in zip(dry, budgets):
        cluster = clusters[i]
        group = groups.get((id(cluster.solution_cache), id(cluster.arch)))
        if group is None:
            group = groups[(id(cluster.solution_cache), id(cluster.arch))] = (
                cluster.solution_cache, cluster.arch, [])
        group[2].extend(_plan_windows(
            cluster, budget, keys[i], seg[i], start[i], done[i],
            tables[id(cluster.cursor.kernel)], freq[i]))
    for cache, arch, plans in groups.values():
        rows = _solve_wave(cache, arch, plans)
        ipc = rows[:, QR_IPC].tolist()
        bw = rows[:, QR_BW_UTIL].tolist()
        base = 0
        for windows, key, key_base, first, count, _, _, _ in plans:
            windows[key] = SolveWindow(first, first + count, rows, base, ipc,
                                       bw, key_base)
            base += count


def run_epoch_batch(clusters: list[ClusterState], epoch_s: float, *,
                    accumulate: bool = True,
                    matrix_out: np.ndarray | None = None) -> BatchEpochResult:
    """Advance every cluster by ``epoch_s`` seconds in lockstep.

    Each cluster's outcome is independent of the others in the call
    (see the module docstring for why); cursor and pending-transition
    state are written back to the cluster objects.  An epoch first
    charges any pending IVR transition dead time (idle cycles, nothing
    issues), then steps quanta until the budget runs out or the kernel
    ends, and charges the rest of the epoch as idle cycles.  With
    ``accumulate=False`` the activity matrix is skipped (state still
    advances — the datagen replay protocol uses this for its
    reference/tail scans, whose counters are never read).
    ``matrix_out``, when given, must be a ``(n, NUM_ACTIVITY_SLOTS)``
    float64 buffer; it is overwritten and returned instead of a newly
    allocated result matrix.

    Clusters may carry different solution caches, architectures,
    kernels and noise tracks; solves are grouped per (cache, arch).
    """
    if epoch_s <= 0:
        raise SimulationError("epoch duration must be positive")
    n = len(clusters)
    if accumulate and matrix_out is not None:
        if matrix_out.shape != (n, NUM_ACTIVITY_SLOTS):
            raise SimulationError(
                f"matrix_out must have shape ({n}, {NUM_ACTIVITY_SLOTS}),"
                f" got {matrix_out.shape}")
    limit = epoch_s - _EPOCH_EPS

    # Per-cluster walk state; a walk that runs off its windows parks
    # here until the refill wave.
    seg = [c.cursor.segment_index for c in clusters]
    done = [c.cursor.instructions_done for c in clusters]
    start = [c.cursor._completed_instructions for c in clusters]
    # IVR transition dead time is charged as idle cycles first.
    dead = [min(c._pending_transition_s, epoch_s) for c in clusters]
    elapsed = list(dead)
    busy = [0.0] * n
    bw_time = [0.0] * n
    instructions = [0.0] * n
    # Per quantum run: its row's index in the call's row pool (the
    # refill waves' row matrices, each once) and its instruction count.
    ran_rows: list[list[int]] = [[] for _ in range(n)]
    ran_insts: list[list[float]] = [[] for _ in range(n)]
    pool: list[np.ndarray] = []
    pool_offsets: dict[int, int] = {}
    pool_size = 0
    # (IPC, clock) of each cluster's latest quantum, which sizes its
    # window refills.
    pace = [c.walk_pace for c in clusters]
    # Each cluster's clock and solve key (arch, phase, frequency and
    # noise-track ids); the phase id follows the walk.
    tables: dict[int, tuple] = {}
    freq: list[float] = []
    keys: list[tuple] = []
    operating_points: dict[tuple[int, int], tuple] = {}
    # What the walk reads of each cluster, gathered once per call.
    walkers: list[tuple] = []
    for i, cluster in enumerate(clusters):
        point = operating_points.get((id(cluster.arch), cluster.level))
        if point is None:
            f = float(cluster.arch.vf_table[cluster.level].frequency_hz)
            point = operating_points[(id(cluster.arch), cluster.level)] = (
                f, arch_solve_key_cached(cluster.arch), frequency_key_id(f))
        freq.append(point[0])
        kernel = cluster.cursor.kernel
        _, phase_ids, lengths = _phase_table(kernel, tables)
        keys.append((point[1], phase_ids[seg[i] % len(phase_ids)], point[2],
                     cluster.noise.track_id))
        ci = cluster.noise.chunk_instructions
        walkers.append((cluster.solve_windows, kernel.num_segments, phase_ids,
                        lengths, ci, float(ci), ran_rows[i].append,
                        ran_insts[i].append))

    def _walk(i: int) -> bool:
        """Step cluster ``i`` until its epoch or its kernel ends (False)
        or it runs off its solve windows (True)."""
        nonlocal pool_size
        (windows, num_segments, phase_ids, lengths, ci, chunk_len,
         row_append, inst_append) = walkers[i]
        key = keys[i]
        window = windows.get(key)
        if window is None:
            return True
        num_phases = len(lengths)
        f = freq[i]
        s, d, c, e = seg[i], done[i], start[i], elapsed[i]
        bu, bt, ins = busy[i], bw_time[i], instructions[i]
        length = lengths[s % num_phases]
        length_eps = length - _SEGMENT_EPS
        ran_off = False
        ipc = 0.0
        while window is not None:
            first, stop, rows, low, ipcs, bws, _ = window
            offset = pool_offsets.get(id(rows))
            if offset is None:
                offset = pool_offsets[id(rows)] = pool_size
                pool.append(rows)
                pool_size += len(rows)
            # Chunk ``chunk`` is row ``k = chunk - shift`` of the
            # window's wave, and row ``offset + k`` of the pool.
            high = low + stop - first
            shift = first - low
            window = None
            while True:
                pos = c + d
                chunk = int(pos // ci)
                k = chunk - shift
                if not low <= k < high:
                    ran_off = True
                    break
                b = length - d
                to_chunk_end = (chunk + 1) * chunk_len - pos
                if to_chunk_end < b:
                    b = to_chunk_end
                ipc = ipcs[k]
                t = (b / ipc) / f
                if not t <= epoch_s - e:
                    # The cut quantum runs for the time left only, and
                    # the cluster's epoch ends with it.
                    tl = epoch_s - e
                    si = (tl * f) * ipc
                    if si > 0:
                        row_append(offset + k)
                        inst_append(si)
                        bu += tl
                        bt += tl * bws[k]
                        ins += si
                        d = d + si
                        e = e + tl
                        if d >= length_eps:
                            c = c + length
                            d = 0.0
                            s += 1
                    # si <= 0: no progress possible; the rest of the
                    # epoch is idle.
                    break
                row_append(offset + k)
                inst_append(b)
                bu += t
                bt += t * bws[k]
                ins += b
                e += t
                d += b
                if d >= length_eps:
                    c += length
                    d = 0.0
                    s += 1
                    if s >= num_segments:
                        break
                    length = lengths[s % num_phases]
                    length_eps = length - _SEGMENT_EPS
                    phase_id = phase_ids[s % num_phases]
                    if phase_id != key[1]:
                        key = (key[0], phase_id, key[2], key[3])
                        window = windows.get(key)
                        ran_off = window is None
                        break
                if e >= limit:
                    break
            if window is None or e >= limit:
                break
        seg[i], done[i], start[i], elapsed[i] = s, d, c, e
        busy[i], bw_time[i], instructions[i] = bu, bt, ins
        keys[i] = key
        if ipc:
            pace[i] = (ipc, f)
        return ran_off

    todo = [i for i in range(n)
            if seg[i] < clusters[i].cursor.kernel.num_segments
            and elapsed[i] < limit]
    refilled = [False] * n
    while todo:
        dry = [i for i in todo if _walk(i)]
        if dry:
            budgets = []
            for i in dry:
                if pace[i] is None:
                    expected = _FIRST_CHUNKS
                else:
                    # The chunks the time left runs at the latest
                    # quantum's IPC, at the faster of its clock and now.
                    ipc, f = pace[i]
                    expected = ((epoch_s - elapsed[i]) * max(f, freq[i]) * ipc
                                / clusters[i].noise.chunk_instructions)
                if refilled[i]:
                    expected *= 2
                budgets.append(int(expected) + _WINDOW_MARGIN)
                refilled[i] = True
            _refill(clusters, dry, budgets, keys, freq, seg, start, done,
                    tables)
        todo = dry

    acc = None
    if accumulate:
        acc = matrix_out if matrix_out is not None else np.empty(
            (n, NUM_ACTIVITY_SLOTS), dtype=np.float64)
        acc.fill(0.0)
        if any(dead):
            acc[:, A_CYCLES] = [dead[i] * freq[i] for i in range(n)]
        depth = max(map(len, ran_rows), default=0)
        if depth:
            # The activity slots are running sums seeded with the dead
            # time: one elementwise add per quantum step across all
            # clusters, strictly in quantum order.  Shorter walks are
            # padded with a zero row times zero instructions, which
            # adds exact zeros after their last quantum.
            table = np.concatenate(pool + [np.zeros((1, QROW_WIDTH))])
            steps = table.take(np.fromiter(
                itertools.chain.from_iterable(itertools.zip_longest(
                    *ran_rows, fillvalue=pool_size)),
                dtype=np.intp, count=n * depth), axis=0)
            steps *= np.fromiter(
                itertools.chain.from_iterable(itertools.zip_longest(
                    *ran_insts, fillvalue=0.0)),
                dtype=np.float64, count=n * depth)[:, None]
            for step in steps.reshape(depth, n, QROW_WIDTH):
                acc += step[:, :NUM_ACTIVITY_SLOTS]
        # The rest of the epoch is idle cycles at the cluster's clock
        # (adding an exact zero where the epoch is fully used).
        acc[:, A_CYCLES] += [(epoch_s - elapsed[i]) * freq[i]
                             if elapsed[i] < epoch_s else 0.0
                             for i in range(n)]
        acc[:, A_BUSY_S] = busy
        acc[:, A_BW_UTIL_TIME] = bw_time

    for i, cluster in enumerate(clusters):
        cursor = cluster.cursor
        cursor.segment_index = seg[i]
        cursor.instructions_done = float(done[i])
        cursor._completed_instructions = float(start[i])
        cluster._pending_transition_s -= dead[i]
        cluster.walk_pace = pace[i]

    return BatchEpochResult(
        matrix=acc,
        instructions=np.array(instructions, dtype=np.float64),
        finished=np.array([seg[i] >= clusters[i].cursor.kernel.num_segments
                           for i in range(n)], dtype=bool),
    )
