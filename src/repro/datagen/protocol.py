"""The paper's data-generation protocol (§III-A).

For each training kernel, executed at the default V/f operating point:

1. Roughly every 100 µs a *breakpoint* is placed (one data-point cycle).
2. A reference replay from the breakpoint fixes the workload span: the
   instructions the GPU completes in ``segment_epochs`` epochs at the
   default operating point.  Its duration is ``T0``.
3. For each of the 6 operating points, the segment is replayed from a
   snapshot: one *feature collection window* epoch at the default
   point (counters are recorded), one *frequency scaling window* epoch
   at the trial point (its instruction count is recorded), then the
   default point again until the workload mark is reached.  The total
   replay duration is ``T_f``; the measured performance loss is
   ``(T_f - T0) / T0``.

Collecting over the full ~100 µs segment — not just the 20 µs of the
two windows — captures the delayed effects of a frequency change
(stalled warps resuming epochs later), exactly the error source the
paper's 100 µs collection period is chosen to mitigate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DatasetError, SimulationError
from ..gpu.arch import GPUArchConfig
from ..gpu.cluster import build_counters_matrix
from ..gpu.counters import COUNTER_INDEX, CounterSet
from ..gpu.fused import (SharedContextCache, dump_shared, fuse_groups,
                         release_shared)
from ..gpu.interval_model import SolutionCache
from ..gpu.quantum import run_epoch_batch
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import DEFAULT_EPOCH_S, GPUSimulator
from ..parallel import CampaignCheckpoint, CampaignStats, parallel_map
from ..power.model import PowerModel


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the data-generation protocol.

    Defaults follow the paper: 10 µs epochs, 100 µs data-point cycles
    (10 epochs), a 1-epoch feature window and a 1-epoch scaling window.
    """

    epoch_s: float = DEFAULT_EPOCH_S
    segment_epochs: int = 10
    max_breakpoints_per_kernel: int = 12
    augment_feature_levels: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise DatasetError("epoch length must be positive")
        if self.segment_epochs < 3:
            raise DatasetError(
                "segment must cover the two windows plus recovery epochs"
            )
        if self.max_breakpoints_per_kernel <= 0:
            raise DatasetError("need at least one breakpoint per kernel")


@dataclass
class BreakpointSamples:
    """All six variants measured at one breakpoint.

    ``losses`` is the canonical label: the excess time caused by the
    scaling window — *including* delayed effects surfacing later in the
    100 µs segment — normalised by the window's reference duration.
    This equals the sustained fractional slowdown of holding that
    operating point, so a runtime preset of 10 % genuinely bounds
    program slowdown near 10 % when applied every epoch.
    ``segment_losses`` keeps the raw ``(T_f - T0)/T0`` over the whole
    segment (the paper's literal formula); the two differ only by the
    constant factor ``segment/window``.
    """

    kernel_name: str
    breakpoint_index: int
    feature_counters: CounterSet
    t0_s: float
    levels: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    segment_losses: list[float] = field(default_factory=list)
    window_instructions: list[float] = field(default_factory=list)
    tf_s: list[float] = field(default_factory=list)
    #: Feature-window counters replayed at each operating point:
    #: (window_level, counters).  The paper always collects features at
    #: the default point, but at runtime the previous epoch runs at
    #: whatever level was last chosen — a train/serve distribution shift.
    #: These variants (same labels, same workload position) close it.
    feature_variants: list[tuple[int, CounterSet]] = field(
        default_factory=list)

    def minimal_level_for_preset(self, preset: float) -> int:
        """Oracle: the slowest level whose loss stays under ``preset``."""
        best = max(self.levels)  # default point always satisfies (loss ~ 0)
        for level, loss in zip(self.levels, self.losses):
            if loss <= preset and level < best:
                best = level
        return best


def _finalize_samples(samples: BreakpointSamples, default_level: int,
                      config: ProtocolConfig) -> BreakpointSamples:
    """Turn raw replay durations into the canonical loss labels."""
    # T0 is the default-level replay's duration (loss 0 by construction).
    try:
        default_idx = samples.levels.index(default_level)
    except ValueError as exc:
        raise DatasetError("default level missing from replay set") from exc
    samples.t0_s = samples.tf_s[default_idx]
    samples.segment_losses = [(tf - samples.t0_s) / samples.t0_s
                              for tf in samples.tf_s]
    # Window-normalised labels: excess time (with delayed effects) over
    # the reference duration of the one epoch that was rescaled.
    samples.losses = [(tf - samples.t0_s) / config.epoch_s
                      for tf in samples.tf_s]
    return samples


def _grid_lanes(simulator: GPUSimulator) -> list[GPUSimulator]:
    """One spare simulator per operating point for the V/f-grid replay.

    Lanes are built from the same seed/kernel/arch as ``simulator`` so
    restoring its snapshots into them replays bit-identically (noise
    tracks are position-indexed per seed; the lanes additionally share
    one noise cache so the tracks are materialised once).  The
    interval-solution cache is shared with the driving simulator — the
    grid replays the same workload stretch at every point, which is
    exactly where the cross-lane hits come from.
    """
    noise_cache: dict = {}
    kernel = (simulator.kernels if len(simulator.kernels) > 1
              else simulator.kernel)
    return [
        GPUSimulator(simulator.arch, kernel, simulator.power_model,
                     seed=simulator.seed, epoch_s=simulator.epoch_s,
                     solution_cache=simulator.solution_cache,
                     noise_cache=noise_cache)
        for _ in range(simulator.arch.vf_table.num_levels)
    ]


def collect_breakpoint(simulator: GPUSimulator, breakpoint_index: int,
                       config: ProtocolConfig,
                       lanes: list[GPUSimulator] | None = None,
                       reference: tuple[float, dict] | None = None
                       ) -> BreakpointSamples:
    """Run the six-way replay for the breakpoint at the current state.

    The simulator must be positioned at the breakpoint (all clusters at
    the default level) and is left at the end of the reference segment
    so generation can continue to the next breakpoint.  Every operating
    point gets a *lane* simulator restored from the same snapshot
    (``lanes``: one spare simulator per point, built by
    :func:`_grid_lanes` when not given) and the whole V/f grid advances
    epoch-by-epoch in lockstep through one epoch-engine call over all
    lanes' clusters:

    * the feature collection window is identical across grid points
      (same state, same default level), so it is solved **once** on the
      driving simulator and its end state is fanned out to the lanes;
    * the scaling windows (one per point) run as a single
      ``run_epoch_batch`` over ``levels x clusters`` rows;
    * the tails run in lockstep at the default point, each lane
      dropping out as it reaches the workload mark; the mark is crossed
      mid-epoch, so the tail time is interpolated linearly within that
      final epoch.

    Lanes advance through the epoch engine's advance-only mode — the
    tail needs instruction positions, not power.  ``reference`` hands
    in a precomputed ``(workload_mark, end_state)`` reference segment —
    the generation loop's fit probe covers the same epochs, so it
    shares them instead of replaying the segment here.
    """
    if lanes is None:
        lanes = _grid_lanes(simulator)
    arch = simulator.arch
    epoch_s = config.epoch_s
    num_clusters = arch.num_clusters
    default_level = arch.vf_table.default_level
    num_levels = arch.vf_table.num_levels
    snapshot = simulator.snapshot()

    if reference is not None:
        # The generation loop's fit probe already advanced through the
        # reference segment and captured its span/end state.
        workload_mark, end_state = reference
    else:
        # Reference segment: fixes the workload span and T0.
        simulator.set_all_levels(default_level)
        for _ in range(config.segment_epochs):
            if simulator.finished:
                break
            simulator.step_epoch()
        workload_mark = simulator.mean_instructions_done()
        end_state = simulator.snapshot()

    # Shared feature window: every grid point replays the identical
    # default-level epoch from the breakpoint state.
    simulator.restore(snapshot)
    simulator.set_all_levels(default_level)
    if simulator.finished:
        raise DatasetError("breakpoint placed after kernel completion")
    feature_record = simulator.step_epoch()
    samples = BreakpointSamples(
        kernel_name=simulator.kernel.name,
        breakpoint_index=breakpoint_index,
        feature_counters=feature_record.counters.copy(),
        t0_s=0.0,
    )
    if simulator.finished:
        raise DatasetError("kernel too short for the requested breakpoint")
    after_feature = simulator.snapshot()

    # Scaling windows: one batched epoch over every lane's clusters.
    for level, lane in enumerate(lanes):
        lane.restore(after_feature)
        lane.set_all_levels(level)
    scaling = run_epoch_batch(
        [cluster for lane in lanes for cluster in lane.clusters],
        epoch_s, accumulate=False)
    window_instructions = [
        sum(scaling.instructions[lv * num_clusters:
                                 (lv + 1) * num_clusters].tolist())
        for lv in range(num_levels)
    ]

    # Lockstep tails: every lane back at the default point until its
    # replay reaches the workload mark (or the kernel drains).
    for lane in lanes:
        lane.set_all_levels(default_level)
    tails = [0.0] * num_levels
    elapsed = [0.0] * num_levels
    live = [lv for lv in range(num_levels)
            if not lanes[lv].finished
            and lanes[lv].mean_instructions_done() < workload_mark]
    epochs = 0
    while live:
        epochs += 1
        if epochs > 10_000:
            raise SimulationError("workload mark never reached")
        before = [lanes[lv].mean_instructions_done() for lv in live]
        run_epoch_batch(
            [cluster for lv in live for cluster in lanes[lv].clusters],
            epoch_s, accumulate=False)
        still = []
        for pos, lv in enumerate(live):
            lane = lanes[lv]
            after = lane.mean_instructions_done()
            if after >= workload_mark:
                progress = after - before[pos]
                fraction = ((workload_mark - before[pos]) / progress
                            if progress > 0 else 1.0)
                tails[lv] = elapsed[lv] + fraction * epoch_s
                continue
            elapsed[lv] += epoch_s
            tails[lv] = elapsed[lv]
            if not lane.finished:
                still.append(lv)
        live = still

    for level in range(num_levels):
        samples.levels.append(level)
        samples.window_instructions.append(
            window_instructions[level] / num_clusters)
        samples.tf_s.append(2 * epoch_s + tails[level])

    _finalize_samples(samples, default_level, config)

    # Feature-window level augmentation, batched across the non-default
    # operating points: one quantum-kernel call over all variant lanes,
    # then per-lane counter/power assembly on each lane's row slice
    # (slice reductions are bit-identical to the standalone per-lane
    # ones; power stays per-lane because its accumulation order depends
    # on the row count BLAS sees).
    samples.feature_variants = [(default_level, samples.feature_counters)]
    if config.augment_feature_levels and num_levels > 1:
        variant_levels = [lv for lv in range(num_levels)
                          if lv != default_level]
        for lv in variant_levels:
            lane = lanes[lv]
            lane.restore(snapshot)
            lane.set_all_levels(lv)
        result = run_epoch_batch(
            [cluster for lv in variant_levels
             for cluster in lanes[lv].clusters], epoch_s)
        counters_matrix = build_counters_matrix(result.matrix, arch)
        for j, lv in enumerate(variant_levels):
            lane = lanes[lv]
            start, stop = j * num_clusters, (j + 1) * num_clusters
            dynamic_w, static_w, energy_j = (
                lane.power_model.cluster_power_batch(
                    result.matrix[start:stop], lane._durations,
                    lane._voltage_by_level[lane.levels]))
            sub = counters_matrix[start:stop]
            sub[:, COUNTER_INDEX["power_per_core"]] = dynamic_w + static_w
            sub[:, COUNTER_INDEX["power_dynamic"]] = dynamic_w
            sub[:, COUNTER_INDEX["power_static"]] = static_w
            sub[:, COUNTER_INDEX["energy_epoch"]] = energy_j
            samples.feature_variants.append(
                (lv, CounterSet.from_vector(sub.mean(axis=0))))

    # Leave the simulator at the end of the reference segment.
    simulator.restore(end_state)
    return samples


def generate_for_kernel(kernel: KernelProfile, arch: GPUArchConfig,
                        power_model: PowerModel | None = None,
                        config: ProtocolConfig | None = None,
                        stats: CampaignStats | None = None,
                        solution_cache: SolutionCache | None = None
                        ) -> list[BreakpointSamples]:
    """Run the full protocol over one kernel.

    ``stats`` (when given) receives the simulator's interval-model
    solution-cache counters as ``solve_cache_hit`` / ``solve_cache_miss``
    — the replay protocol re-executes each workload stretch at up to
    seven operating points, which is where the hits come from.
    ``solution_cache`` shares one solve cache *across* kernels (the
    fused generation path); cache keys capture every solver input
    bit-exactly, so sharing never changes the samples, only hit rates —
    the caller then owns hit/miss accounting.
    """
    config = config or ProtocolConfig()
    simulator = GPUSimulator(arch, kernel, power_model or PowerModel(),
                             seed=config.seed, epoch_s=config.epoch_s,
                             solution_cache=solution_cache)
    simulator.set_all_levels(arch.vf_table.default_level)
    lanes = _grid_lanes(simulator)
    breakpoints: list[BreakpointSamples] = []
    # Keep a margin so every replay has room to reach its workload mark
    # even at the slowest point (worst-case tail < 0.8x a segment).
    margin = config.segment_epochs
    while (len(breakpoints) < config.max_breakpoints_per_kernel
           and not simulator.finished):
        # Probe whether a full segment (plus margin) fits from here.
        # The probe only needs completion flags, so it advances cluster
        # state without accumulating activity or evaluating power; the
        # state is restored afterwards.  Its first ``segment_epochs``
        # steps cover exactly the breakpoint's reference segment, so the
        # probe keeps the segment's time accounting (the same per-epoch
        # float adds ``step_epoch`` performs) and hands the span/end
        # state to the replay instead of stepping those epochs again.
        probe = simulator.snapshot()
        fits = True
        reference = None
        simulator.set_all_levels(arch.vf_table.default_level)
        for _ in range(config.segment_epochs):
            if simulator.finished:
                fits = False
                break
            run_epoch_batch(simulator.clusters, simulator.epoch_s,
                            accumulate=False)
            simulator.time_s += simulator.epoch_s
            simulator.epoch_index += 1
        if fits:
            reference = (simulator.mean_instructions_done(),
                         simulator.snapshot())
            for _ in range(margin):
                if simulator.finished:
                    fits = False
                    break
                run_epoch_batch(simulator.clusters, simulator.epoch_s,
                                accumulate=False)
        simulator.restore(probe)
        if not fits:
            break
        breakpoints.append(
            collect_breakpoint(simulator, len(breakpoints), config,
                               lanes=lanes, reference=reference))
    cache = simulator.solution_cache
    if stats is not None:
        stats.count("solve_cache_hit", cache.hits)
        stats.count("solve_cache_miss", cache.misses)
        stats.count("solve_cache_evictions", cache.evictions)
    return breakpoints


def required_duration_s(config: ProtocolConfig) -> float:
    """Kernel duration needed to host ``max_breakpoints_per_kernel``.

    Each breakpoint consumes one reference segment, and the last one
    needs a two-segment margin so every replay can reach its workload
    mark even at the slowest operating point.
    """
    epochs = ((config.max_breakpoints_per_kernel + 3)
              * config.segment_epochs)
    return epochs * config.epoch_s


def scale_kernel_for_protocol(kernel: KernelProfile, arch: GPUArchConfig,
                              config: ProtocolConfig) -> KernelProfile:
    """Scale a kernel *up* (never down) to host the configured breakpoints.

    Training programs in the paper run long enough for breakpoints every
    ~100 µs; the evaluation-length (~300 µs) variants are built
    elsewhere.
    """
    from ..workloads.suites import estimate_default_duration
    estimated = estimate_default_duration(kernel, arch)
    needed = required_duration_s(config)
    if estimated >= needed:
        return kernel
    factor = int(np.ceil(needed / max(estimated, 1e-9)))
    return kernel.with_iterations(kernel.iterations * factor)


def _kernel_task(task: tuple) -> tuple[list[BreakpointSamples], dict[str, int]]:
    """Process-pool unit of work: one kernel's breakpoint/V/f replays.

    Module-level so it pickles by reference; every task builds its own
    simulator from the explicit config seed, so the output is identical
    whether tasks run serially in-process or fanned out over workers.
    Counters (solve-cache hits/misses) travel back with the chunk — a
    worker process cannot mutate the caller's :class:`CampaignStats`.
    """
    kernel, arch, power_model, config = task
    local = CampaignStats()
    chunk = generate_for_kernel(kernel, arch, power_model, config,
                                stats=local)
    return chunk, local.counters


#: Per-process cache of shared generation contexts, so a pool worker
#: attaches/unpickles each campaign's shared context once, not per group.
_DATAGEN_CONTEXTS = SharedContextCache()


def _fused_kernel_group(task: tuple
                        ) -> tuple[list[list[BreakpointSamples]],
                                   dict[str, int]]:
    """Process-pool unit of a fused generation campaign: one kernel group.

    ``task`` is ``(context_ref, kernel_indices)``; the context (scaled
    kernel suite, arch, power model, protocol config) is shipped once
    per campaign via shared memory and each group entry is just an
    index into it.  Kernels in a group run sequentially but share one
    :class:`SolutionCache` — the six-way V/f replays of different
    kernels hit the same interval-model solves, and cache keys are
    bit-exact, so the samples are identical to the serial path.
    Hit/miss counters are accounted once per group (the shared cache's
    totals), not per kernel.
    """
    ref, kernel_indices = task
    context = _DATAGEN_CONTEXTS.get(ref)
    kernels = context["kernels"]
    config = context["config"]
    shared_cache = SolutionCache()
    chunks = []
    for kernel_index in kernel_indices:
        chunks.append(generate_for_kernel(
            kernels[kernel_index], context["arch"], context["power_model"],
            config, solution_cache=shared_cache))
    local = CampaignStats()
    local.count("solve_cache_hit", shared_cache.hits)
    local.count("solve_cache_miss", shared_cache.misses)
    local.count("solve_cache_evictions", shared_cache.evictions)
    local.count("fused_tasks", len(list(kernel_indices)))
    return chunks, local.counters


def generate_chunks_for_suite(kernels: list[KernelProfile],
                              arch: GPUArchConfig,
                              power_model: PowerModel | None = None,
                              config: ProtocolConfig | None = None,
                              auto_scale: bool = True,
                              workers: int | None = None,
                              stats: CampaignStats | None = None,
                              checkpoint: CampaignCheckpoint | None = None,
                              retries: int = 2,
                              timeout_s: float | None = None,
                              fused: bool = False,
                              fuse_width: int = 8
                              ) -> list[list[BreakpointSamples]]:
    """Run the protocol over a suite, one breakpoint chunk per kernel.

    The per-kernel chunk is the parallel unit: breakpoints within a
    kernel share simulator state (each reference segment starts where
    the previous one ended) and must stay sequential, but kernels are
    fully independent.  Chunk order follows the input suite order, so
    flattening the chunks reproduces the serial output bit for bit.
    ``checkpoint``/``retries``/``timeout_s`` configure the resilient
    fan-out (see :func:`repro.parallel.parallel_map`).

    ``fused=True`` groups ``fuse_width`` consecutive kernels per worker
    task: the suite context ships to the pool once via shared memory
    and each group shares one interval-solution cache across its
    kernels.  Output is bit-identical to the serial path; only the
    solve hit rate and transport cost change.  Fused and non-fused
    checkpoints are incompatible (group- vs kernel-shaped results) —
    callers namespace the checkpoint key accordingly.
    """
    if not kernels:
        raise DatasetError("no kernels given")
    config = config or ProtocolConfig()
    scaled = []
    for kernel in kernels:
        if auto_scale:
            kernel = scale_kernel_for_protocol(kernel, arch, config)
        scaled.append(kernel)
    if fused:
        context = {"kernels": scaled, "arch": arch,
                   "power_model": power_model, "config": config}
        ref, block = dump_shared(context)
        groups = fuse_groups(list(range(len(scaled))), fuse_width)
        try:
            group_results = parallel_map(
                _fused_kernel_group, [(ref, group) for group in groups],
                workers=workers, stats=stats, stage="datagen",
                checkpoint=checkpoint, retries=retries, timeout_s=timeout_s)
        finally:
            release_shared(block)
        results = []
        for group_chunks, counters in group_results:
            for chunk in group_chunks:
                results.append((chunk, {}))
            if stats is not None:
                stats.merge_counters(counters)
        if stats is not None:
            stats.count("fused_groups", len(groups))
            stats.count("fused_shared_bytes", ref.shared_bytes)
    else:
        tasks = [(kernel, arch, power_model, config) for kernel in scaled]
        results = parallel_map(_kernel_task, tasks, workers=workers,
                               stats=stats, stage="datagen",
                               checkpoint=checkpoint, retries=retries,
                               timeout_s=timeout_s)
    chunks = []
    for chunk, counters in results:
        chunks.append(chunk)
        if stats is not None:
            for name, amount in counters.items():
                stats.count(name, amount)
    if not any(chunks):
        raise DatasetError("no breakpoints generated; kernels too short?")
    return chunks


def generate_for_suite(kernels: list[KernelProfile], arch: GPUArchConfig,
                       power_model: PowerModel | None = None,
                       config: ProtocolConfig | None = None,
                       auto_scale: bool = True,
                       workers: int | None = None,
                       stats: CampaignStats | None = None,
                       fused: bool = False,
                       fuse_width: int = 8) -> list[BreakpointSamples]:
    """Run the protocol over a full training suite.

    With ``auto_scale`` (default) kernels too short to host the
    configured number of breakpoints are repeated until they fit.
    ``workers`` fans the per-kernel campaigns out over a process pool;
    the result is bit-identical to the serial pass for a fixed seed
    (``fused`` included — see :func:`generate_chunks_for_suite`).
    """
    chunks = generate_chunks_for_suite(kernels, arch, power_model, config,
                                       auto_scale=auto_scale, workers=workers,
                                       stats=stats, fused=fused,
                                       fuse_width=fuse_width)
    return [bp for chunk in chunks for bp in chunk]
