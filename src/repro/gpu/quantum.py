"""The epoch engine: prefetched quantum schedules, stacked solves.

:func:`run_epoch_batch` advances any number of :class:`~repro.gpu.
cluster.ClusterState` objects through one DVFS epoch; it is the only
way simulated time moves forward.  The engine exploits a structural
property of the quantum loop: quantum *boundaries* are determined
purely by workload position (phase segment ends and noise-chunk ends),
never by wall-clock time.  Each cluster's upcoming quanta — boundary,
phase length, noise multipliers, post-quantum cursor state — are
enumerated ahead of time by a cheap Python shadow cursor, and the
interval-model solves for a whole *wave* of quanta across all clusters
are resolved through one batched cache probe plus one
:func:`~repro.gpu.interval_model.solve_throughput_batch` call for the
misses.  Stepping then consumes each cluster's prefetched schedule in
one pass: a running-sum (``np.cumsum``) over the quantum times finds
how many quanta fit in the epoch budget, and the cluster's cursor
jumps straight to the enumerated post-state of the last full quantum.
Time only enters at the epoch boundary: the one quantum cut short by
the budget is stepped with scalar arithmetic, and it invalidates the
cluster's prefetched tail, which is re-enumerated from real state if
ever needed (rare: the epoch ends right there).

Bit-stability rules
-------------------
A cluster's results never depend on which other clusters share its
call (a lone cluster, a whole GPU, or every co-simulated task of a
fused campaign), so every batching above the engine is free.  The
enumeration pass works on Python floats: positions, chunk indices
(CPython ``float.__floordiv__`` is not ``floor(x / y)`` in all edge
cases, so ``//`` stays in Python), boundaries and segment completions.
The stepping pass uses only elementwise numpy ops
(add/sub/mul/div/where/comparisons) — correctly rounded per element —
plus ``np.cumsum``, which accumulates strictly left-to-right and
therefore reproduces a sequential per-quantum ``elapsed`` / activity
running sum bit-for-bit.  ``np.sum``/``np.add.reduce`` (pairwise/
unrolled grouping) and matrix products are banned from this module;
per-task reductions stay with the callers (simulator / fused engine)
on contiguous row slices, which keeps BLAS out of the quantum path
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .cluster import (A_BW_UTIL_TIME, A_BUSY_S, A_CYCLES, A_INSTRUCTIONS,
                      NUM_ACTIVITY_SLOTS, QR_BW_UTIL, QR_IPC, QROW_WIDTH,
                      ClusterState, quantum_rows_batch)
from .interval_model import (PP_INSTRUCTIONS, arch_solve_key_cached,
                             phase_params_row, phase_solve_key_cached,
                             solve_throughput_batch)

#: Epoch-boundary slack: a cluster within this of the budget is done.
_EPOCH_EPS = 1e-15
#: Segment-completion slack on the instructions done in a segment.
_SEGMENT_EPS = 1e-9
#: Quanta enumerated per cluster on a mid-epoch refill.  The first wave
#: is sized from the cluster's consumption last epoch (``_quanta_hint``)
#: so steady-state epochs resolve in one or two waves.
_REFILL_QUANTA = 16
#: First-wave size for clusters with no consumption history yet.
_DEFAULT_HINT = 6
#: Upper bound on the remembered per-epoch consumption hint.  Generous:
#: over-enumerated quanta cost one wasted (cached) solve each at epoch
#: end, while an undershot hint costs a whole extra refill wave — and
#: long control epochs run hundreds of quanta per cluster.
_MAX_HINT = 1024


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
    float64 buffer; it is zeroed and reused instead of allocating the
    result matrix.

    Clusters may carry different solution caches, architectures,
    kernels and noise tracks; solves are grouped per (cache, arch).
    """
    if epoch_s <= 0:
        raise SimulationError("epoch duration must be positive")
    n = len(clusters)
    if accumulate:
        if matrix_out is not None:
            if matrix_out.shape != (n, NUM_ACTIVITY_SLOTS):
                raise SimulationError(
                    f"matrix_out must have shape ({n}, {NUM_ACTIVITY_SLOTS}),"
                    f" got {matrix_out.shape}")
            acc = matrix_out
            acc.fill(0.0)
        else:
            acc = np.zeros((n, NUM_ACTIVITY_SLOTS), dtype=np.float64)
    else:
        acc = None
    if n == 0:
        return BatchEpochResult(
            matrix=acc,
            instructions=np.zeros(0, dtype=np.float64),
            finished=np.zeros(0, dtype=bool),
        )

    # ------------------------------------------------------------------
    # Gather per-cluster state into arrays / parallel lists.
    # ------------------------------------------------------------------
    caches = [c.solution_cache for c in clusters]
    arches = [c.arch for c in clusters]
    noises = [c.noise for c in clusters]
    kernels = [c.cursor.kernel for c in clusters]
    num_segments = [k.num_segments for k in kernels]
    seg_index = [c.cursor.segment_index for c in clusters]
    chunk_ints = [c.noise.chunk_instructions for c in clusters]
    freq_list = [float(c.arch.vf_table[c.level].frequency_hz)
                 for c in clusters]
    freq = np.array(freq_list, dtype=np.float64)
    pending = np.array([c._pending_transition_s for c in clusters],
                       dtype=np.float64)
    inst_done = [c.cursor.instructions_done for c in clusters]
    completed = [c.cursor._completed_instructions for c in clusters]
    runnable = [seg_index[i] < num_segments[i] for i in range(n)]

    # Solve groups: clusters sharing (cache, arch) probe and solve as
    # one stack.  The common case is a single group.
    group_slot: dict[tuple[int, int], int] = {}
    group_info: list[tuple] = []
    group_of = np.empty(n, dtype=np.intp)
    ak_list = [arch_solve_key_cached(arch) for arch in arches]
    for i in range(n):
        cache = caches[i]
        gk = (id(cache), id(arches[i]))
        g = group_slot.get(gk)
        if g is None:
            g = len(group_info)
            group_slot[gk] = g
            group_info.append((cache, arches[i]))
        group_of[i] = g
    multi_group = len(group_info) > 1

    # ------------------------------------------------------------------
    # Prefetch state.  A Python shadow cursor per cluster (``e_*``)
    # enumerates upcoming quanta ahead of the stepping pass; resolved
    # quanta live in flat parallel stores addressed through per-cluster
    # lists of contiguous ``(start, stop)`` ranges (a cluster's quanta
    # within one wave are enumerated back to back, so a refill
    # contributes exactly one range — stepping then works on array
    # *slices*, never gather indices).  ``q_rows`` holds the solved
    # quantum rows, ``q_t`` the quantum times, ``q_contrib`` the
    # per-quantum state-row contributions (activity slots, busy time,
    # bandwidth-util time and elapsed time — precomputed once per wave
    # with elementwise ops), ``q_ph`` the phase lengths, and ``q_post``
    # the enumerated post-quantum cursor state (instructions done /
    # completed / segment) the real cursor jumps to after a full
    # consumption.
    # ------------------------------------------------------------------
    e_seg = list(seg_index)
    e_done = list(inst_done)
    e_comp = list(completed)
    e_live = [False] * n
    e_params: list[np.ndarray | None] = [None] * n
    e_ph = [0.0] * n
    e_key: list[int | None] = [None] * n
    # All clusters start dirty: the first refill syncs the shadow
    # cursor from real state through the same path that recovers from
    # a flushed prefetch.
    dirty = [True] * n

    queues: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rptr = [0] * n   # index of the current range in queues[i]
    roff = [0] * n   # consumed quanta within that range
    ncons = [0] * n  # fully consumed quanta this epoch (sizes the hint)
    q_total = 0
    q_rows: np.ndarray | None = None
    q_t: np.ndarray | None = None
    q_contrib: np.ndarray | None = None
    q_ph: list[float] = []
    # Post-quantum cursor state per quantum: (inst_done, completed, seg).
    q_post: list[tuple[float, float, int]] = []
    hints = [getattr(c, "_quanta_hint", _DEFAULT_HINT) for c in clusters]
    primed = [False] * n

    def _resync(i: int) -> None:
        e_seg[i] = seg_index[i]
        e_done[i] = inst_done[i]
        e_comp[i] = completed[i]
        live = seg_index[i] < num_segments[i]
        e_live[i] = live
        if live:
            phase = kernels[i].segment(seg_index[i])
            row = phase_params_row(phase)
            e_params[i] = row
            e_ph[i] = float(row[PP_INSTRUCTIONS])
            e_key[i] = phase_solve_key_cached(phase)
        dirty[i] = False

    def _refill(targets: list[int]) -> None:
        nonlocal q_rows, q_t, q_contrib, q_total
        # Enumerate the next wave of quanta for every target with
        # Python-float arithmetic, then resolve all of them in one
        # batched probe/solve/row pass per (cache, arch) group.
        # One tuple per quantum, unzipped below (fewer hot-loop appends
        # than parallel lists): (cluster, boundary, phase_insts, warp_m,
        # miss_m, cpi_m, params_row, key).
        wave: list[tuple] = []
        wave_append = wave.append
        post_append = q_post.append
        base = q_total
        for i in targets:
            if dirty[i]:
                _resync(i)
            akv = ak_list[i]
            pkv = e_key[i]
            fv = freq_list[i]
            # Noise-track lookups are inlined (list indexing with an
            # extend-on-demand fallback) — a method call per quantum
            # costs more than the lookup itself.
            noise = noises[i]
            flat = noise.sigma == 0.0
            tr0, tr1, tr2 = noise.tracks()
            extend = noise._extend_to
            ci = chunk_ints[i]
            want = _REFILL_QUANTA if primed[i] else hints[i]
            primed[i] = True
            done_i = e_done[i]
            comp_i = e_comp[i]
            seg_i = e_seg[i]
            ph_i = e_ph[i]
            params_i = e_params[i]
            live_i = e_live[i]
            rstart = base + len(wave)
            produced = 0
            while produced < want and live_i:
                pos = comp_i + done_i
                chunk = int(pos // ci)
                if flat:
                    m0 = m1 = m2 = 1.0
                else:
                    if chunk >= len(tr0):
                        extend(chunk)
                    m0 = tr0[chunk]
                    m1 = tr1[chunk]
                    m2 = tr2[chunk]
                b = min(ph_i - done_i, float((chunk + 1) * ci) - pos)
                wave_append((i, b, ph_i, m0, m1, m2, params_i,
                             (akv, pkv, fv, m0, m1, m2)))
                done_i += b
                if done_i >= ph_i - _SEGMENT_EPS:
                    comp_i += ph_i
                    done_i = 0.0
                    seg_i += 1
                    if seg_i < num_segments[i]:
                        phase = kernels[i].segment(seg_i)
                        row = phase_params_row(phase)
                        params_i = row
                        ph_i = float(row[PP_INSTRUCTIONS])
                        pkv = phase_solve_key_cached(phase)
                        e_key[i] = pkv
                    else:
                        live_i = False
                post_append((done_i, comp_i, seg_i))
                produced += 1
            rstop = base + len(wave)
            if rstop > rstart:
                queues[i].append((rstart, rstop))
            e_done[i] = done_i
            e_comp[i] = comp_i
            e_seg[i] = seg_i
            e_ph[i] = ph_i
            e_params[i] = params_i
            e_live[i] = live_i

        m = len(wave)
        if m == 0:
            return
        (wave_i, wave_b, wave_ph, wave_w, wave_m, wave_c, wave_params,
         wave_keys) = zip(*wave)
        wi = np.array(wave_i, dtype=np.intp)
        ww = np.array(wave_w, dtype=np.float64)
        wm_ = np.array(wave_m, dtype=np.float64)
        wc = np.array(wave_c, dtype=np.float64)
        wfreq = freq[wi]
        # Rows are freshly allocated per wave because store_batch
        # memoises views into the miss-row matrix.
        wrows = np.empty((m, QROW_WIDTH), dtype=np.float64)
        wgroups = group_of[wi]
        for g, (cache, garch) in enumerate(group_info):
            if multi_group:
                gsel = np.flatnonzero(wgroups == g)
                if gsel.size == 0:
                    continue
                sel_list = gsel.tolist()
                gw, gm, gc = ww[gsel], wm_[gsel], wc[gsel]
                gfreq = wfreq[gsel]
                gkeys = [wave_keys[j] for j in sel_list]
                target = np.empty((gsel.size, QROW_WIDTH), dtype=np.float64)
            else:
                gsel = None
                sel_list = None
                gw, gm, gc = ww, wm_, wc
                gfreq = wfreq
                gkeys = wave_keys
                target = wrows
            missing = cache.probe_batch(gkeys, target)
            if missing:
                if sel_list is None:
                    mparams = np.stack([wave_params[j] for j, _ in missing])
                else:
                    mparams = np.stack(
                        [wave_params[sel_list[j]] for j, _ in missing])
                midx = np.array([j for j, _ in missing], dtype=np.intp)
                msol = solve_throughput_batch(
                    garch, mparams, gfreq[midx],
                    gw[midx], gm[midx], gc[midx])
                mrows = quantum_rows_batch(garch, mparams, msol)
                target[midx] = mrows
                cache.store_batch(missing, mrows)
            if gsel is not None:
                wrows[gsel] = target
        # Per-wave precomputation of quantum times and state-row
        # contributions, elementwise across the wave:
        # ``t = (b / ipc) / f`` and ``contrib = [row * b, t, t * bw, t]``
        # (accumulate) or ``[b, t]`` (advance-only).
        wb = np.array(wave_b, dtype=np.float64)
        wt = (wb / wrows[:, QR_IPC]) / wfreq
        contrib = np.empty((m, state_width), dtype=np.float64)
        if accumulate:
            np.multiply(wrows[:, :NUM_ACTIVITY_SLOTS], wb[:, None],
                        out=contrib[:, :NUM_ACTIVITY_SLOTS])
            contrib[:, _BUSY_COL] = wt
            np.multiply(wt, wrows[:, QR_BW_UTIL],
                        out=contrib[:, _BW_COL])
        else:
            contrib[:, 0] = wb
        contrib[:, _E_COL] = wt
        if q_rows is None:
            q_rows = wrows
            q_t = wt
            q_contrib = contrib
        else:
            q_rows = np.concatenate((q_rows, wrows))
            q_t = np.concatenate((q_t, wt))
            q_contrib = np.concatenate((q_contrib, contrib))
        q_total += m
        q_ph.extend(wave_ph)

    # ------------------------------------------------------------------
    # IVR transition dead time: ``dead = min(pending, epoch_s)`` is
    # charged as idle cycles before any quantum runs.
    # ------------------------------------------------------------------
    dead = np.minimum(pending, epoch_s)
    pending -= dead
    pend_list = pending.tolist()
    elapsed = dead.tolist()
    # All running sums live in one per-cluster state row so a range
    # consumption is a single seeded matrix cumsum: activity slots,
    # busy time and bandwidth-util time (accumulate mode) or the
    # instruction count (advance-only), plus the elapsed epoch time in
    # the last column.  Columns accumulate independently, so fusing
    # them changes nothing per column.
    if accumulate:
        state_width = NUM_ACTIVITY_SLOTS + 3
        _BUSY_COL = NUM_ACTIVITY_SLOTS
        _BW_COL = NUM_ACTIVITY_SLOTS + 1
    else:
        state_width = 2
    _E_COL = state_width - 1
    state = np.zeros((n, state_width), dtype=np.float64)
    if accumulate:
        state[:, A_CYCLES] = dead * freq
    state[:, _E_COL] = dead
    limit = epoch_s - _EPOCH_EPS

    def _consume(i: int) -> bool:
        """Step cluster ``i`` through its prefetched quanta.

        Walks the cluster's contiguous ranges; every numpy operand is a
        *slice* of the flat per-wave stores (no gather copies).
        Returns True when the cluster consumed its whole queue but the
        epoch budget has not run out — the caller refills and calls
        again.  Quantum times and contribution rows were formed
        elementwise per wave, running sums are seeded cumsums
        (left-to-right, one quantum at a time), the cursor jumps to
        enumerated post-states for fully-consumed quanta, and the final
        partial quantum is stepped with scalar expressions.
        """
        ranges = queues[i]
        while True:
            ri = rptr[i]
            if ri >= len(ranges):
                return runnable[i] and elapsed[i] < limit
            start, stop = ranges[ri]
            lo = start + roff[i]
            k = stop - lo
            if k == 0:
                rptr[i] = ri + 1
                roff[i] = 0
                continue
            # One seeded matrix cumsum advances every running sum at
            # once: row 0 is the cluster's current state row, so a
            # later range, or a refilled queue, continues the same
            # left-associative per-quantum add sequence and the result
            # never depends on how the schedule was split into waves.
            # Rows past the cut-off are computed in vain but a cumsum
            # prefix never depends on later rows, so the kept rows are
            # exact.
            sums = np.empty((k + 1, state_width), dtype=np.float64)
            sums[0] = state[i]
            sums[1:] = q_contrib[lo:stop]
            sums.cumsum(axis=0, out=sums)
            ecol = sums[:, _E_COL]
            elapsed_before = ecol[:k]
            t = q_t[lo:stop]
            time_left = epoch_s - elapsed_before
            fits = (t <= time_left) & (elapsed_before < limit)
            if fits.all():
                full = k
            else:
                full = int(fits.argmin())

            if full:
                inst_done[i], completed[i], s = q_post[lo + full - 1]
                seg_index[i] = s
                if s >= num_segments[i]:
                    runnable[i] = False
                state[i] = sums[full]
                ncons[i] += full
                elapsed[i] = float(ecol[full])

            if full == k:
                # Whole range consumed; move on while the kernel and
                # the epoch budget both have room.
                rptr[i] = ri + 1
                roff[i] = 0
                if runnable[i] and elapsed[i] < limit:
                    continue
                return False

            # The next quantum does not fit: advance the cursor past
            # the consumed prefix, then step the partial remainder for
            # the time left and invalidate the prefetched tail (the
            # shadow cursor ran ahead of state the cluster never
            # reached).
            roff[i] = lo + full - start
            pos = lo + full
            if elapsed_before[full] < limit and runnable[i]:
                tl = time_left[full]
                si = (tl * freq_list[i]) * q_rows[pos, QR_IPC]
                if si > 0:
                    inst_done[i] = float(inst_done[i] + si)
                    if accumulate:
                        row = q_rows[pos]
                        state[i, :NUM_ACTIVITY_SLOTS] += (
                            row[:NUM_ACTIVITY_SLOTS] * si)
                        state[i, _BUSY_COL] += tl
                        state[i, _BW_COL] += tl * row[QR_BW_UTIL]
                    else:
                        state[i, 0] += si
                    ph = q_ph[pos]
                    if inst_done[i] >= ph - _SEGMENT_EPS:
                        completed[i] = float(completed[i] + ph)
                        inst_done[i] = 0.0
                        s = seg_index[i] + 1
                        seg_index[i] = s
                        if s >= num_segments[i]:
                            runnable[i] = False
                    e2 = float(elapsed_before[full] + tl)
                    elapsed[i] = e2
                    state[i, _E_COL] = e2
                    del ranges[ri:]
                    roff[i] = 0
                    dirty[i] = True
                # si <= 0: no progress possible; the rest of the epoch
                # is idle.
            return False

    # ------------------------------------------------------------------
    # Outer passes: refill every dry cluster in one batched wave, then
    # let each cluster consume as far as its queue (or the epoch
    # budget) allows.  Steady state resolves in one or two passes.
    # ------------------------------------------------------------------
    todo = [i for i in range(n) if runnable[i] and elapsed[i] < limit]
    while todo:
        dry = [i for i in todo if rptr[i] >= len(queues[i])]
        if dry:
            _refill(dry)
        todo = [i for i in todo if _consume(i)]

    # Idle tails (remaining epoch time at the current frequency is
    # charged as idle cycles), time-proportional slots, and
    # the copy-out from the fused state matrix into the result matrix.
    if accumulate:
        for i in range(n):
            e = elapsed[i]
            if e < epoch_s:
                state[i, A_CYCLES] += (epoch_s - e) * freq_list[i]
        state[:, A_BUSY_S] = state[:, _BUSY_COL]
        state[:, A_BW_UTIL_TIME] = state[:, _BW_COL]
        acc[:] = state[:, :NUM_ACTIVITY_SLOTS]

    # Write state back to the cluster objects; remember this epoch's
    # consumption so the next epoch's first wave is sized to resolve
    # the whole schedule at once.
    for i, cluster in enumerate(clusters):
        cursor = cluster.cursor
        cursor.segment_index = seg_index[i]
        cursor.instructions_done = float(inst_done[i])
        cursor._completed_instructions = float(completed[i])
        cluster._pending_transition_s = pend_list[i]
        cluster._quanta_hint = min(_MAX_HINT, max(2, ncons[i] + 2))

    instructions = (acc[:, A_INSTRUCTIONS].copy() if accumulate
                    else state[:, 0].copy())
    return BatchEpochResult(
        matrix=acc,
        instructions=instructions,
        finished=np.array([not r for r in runnable], dtype=bool),
    )
