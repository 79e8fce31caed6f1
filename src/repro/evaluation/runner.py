"""Policy evaluation runner.

Runs DVFS policies over evaluation kernels and reports the paper's
metrics: normalized EDP and normalized latency against the
default-operating-point baseline (Fig. 4).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from ..errors import SimulationError
from ..gpu.arch import GPUArchConfig
from ..gpu.fused import FusedCampaignEngine, fuse_groups
from ..gpu.interval_model import SolutionCache
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import GPUSimulator
from ..parallel import CampaignCheckpoint, CampaignStats, parallel_map
from ..power.model import PowerModel
from ..core.policy import StaticPolicy, policy_counters


@dataclass
class PolicyRun:
    """One (policy, kernel) measurement."""

    policy_name: str
    kernel_name: str
    time_s: float
    energy_j: float
    normalized_edp: float
    normalized_latency: float
    epochs: int

    @property
    def edp(self) -> float:
        """Raw energy-delay product."""
        return self.energy_j * self.time_s

    def to_payload(self) -> dict:
        """JSON-ready dict (for the on-disk evaluation-grid cache)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "PolicyRun":
        """Inverse of :meth:`to_payload`."""
        return cls(**payload)


@dataclass
class ComparisonResult:
    """All (policy, kernel) runs of one evaluation campaign."""

    preset: float
    runs: list[PolicyRun] = field(default_factory=list)

    def policies(self) -> list[str]:
        """Policy names in first-seen order."""
        seen: list[str] = []
        for run in self.runs:
            if run.policy_name not in seen:
                seen.append(run.policy_name)
        return seen

    def kernels(self) -> list[str]:
        """Kernel names in first-seen order."""
        seen: list[str] = []
        for run in self.runs:
            if run.kernel_name not in seen:
                seen.append(run.kernel_name)
        return seen

    def series(self, policy_name: str) -> list[PolicyRun]:
        """All runs of one policy, kernel order preserved."""
        return [r for r in self.runs if r.policy_name == policy_name]

    def mean_normalized_edp(self, policy_name: str) -> float:
        """Average normalized EDP of a policy (Fig. 4 bar average)."""
        series = self.series(policy_name)
        if not series:
            raise SimulationError(f"no runs for policy {policy_name!r}")
        return float(np.mean([r.normalized_edp for r in series]))

    def mean_normalized_latency(self, policy_name: str) -> float:
        """Average normalized latency of a policy."""
        series = self.series(policy_name)
        if not series:
            raise SimulationError(f"no runs for policy {policy_name!r}")
        return float(np.mean([r.normalized_latency for r in series]))

    def to_payload(self) -> dict:
        """JSON-ready dict (for the on-disk evaluation-grid cache)."""
        return {"preset": self.preset,
                "runs": [run.to_payload() for run in self.runs]}

    @classmethod
    def from_payload(cls, payload: dict) -> "ComparisonResult":
        """Inverse of :meth:`to_payload`."""
        return cls(preset=payload["preset"],
                   runs=[PolicyRun.from_payload(r)
                         for r in payload["runs"]])


class KernelReplay:
    """What every run of one (kernel, arch, seed) can share.

    Holds one :class:`SolutionCache`, one noise cache and, once a grid
    has run it, the default-level baseline's outcome ``(time_s,
    energy_j, epochs, counters)``.  The baseline does not depend on the
    preset or the policies, and the runs replay the same noise tracks,
    so sharing changes hit rates and run counts, never results.

    Pickling keeps only the baseline outcome: a pooled task ships what
    is known to be true and its worker builds fresh caches, so no solved
    rows cross the process boundary.
    """

    def __init__(self, baseline: tuple | None = None) -> None:
        self.solution_cache = SolutionCache()
        self.noise_cache: dict = {}
        self.baseline = baseline

    def __getstate__(self) -> dict:
        return {"baseline": self.baseline}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["baseline"])


class ReplaySet:
    """One campaign's :class:`KernelReplay` per (kernel, arch, seed).

    The caller owns it and passes it to every
    :func:`compare_policies` call of the campaign.  Entries are keyed by
    object identity and hold the kernel and arch objects, so their ids
    cannot be reused while the set lives: a different kernel, arch or
    seed never reaches another one's entry, even under an equal name.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}

    def entry(self, kernel: KernelProfile, arch: GPUArchConfig,
              seed: int) -> KernelReplay:
        """The replay of ``kernel`` on ``arch`` at ``seed``."""
        key = (id(kernel), id(arch), seed)
        if key not in self._entries:
            self._entries[key] = (kernel, arch, KernelReplay())
        return self._entries[key][2]


def _kernel_task(task: tuple) -> list[tuple[float, float, int,
                                            dict[str, int]]]:
    """Process-pool unit of serial evaluation: one kernel's runs.

    ``task`` is ``(factories, kernel, arch, seed, replay)``; the first
    factory is the baseline's.  Runs the baseline, unless ``replay``
    already holds its outcome, then every policy, over one kernel, one
    after the other.  The runs share the :class:`KernelReplay`'s solve
    cache and noise cache: they replay the same kernel and seed, hence
    the same noise tracks, so a solve one run caches serves the others
    — in this grid and, in-process, in every other grid of the
    campaign.  Sharing changes hit rates, never results.  Takes the
    *factories* rather than policy instances so every run gets a fresh
    policy, and builds its simulators from the explicit seed —
    identical results whether run in-process or in a worker.  Each
    run's outcome carries the policy stack's
    :func:`~repro.core.policy.policy_counters` (guard trips, injected
    faults, calibration anomalies) so the caller can fold them into
    campaign ``--stats``.
    """
    factories, kernel, arch, seed, replay = task
    power_model = PowerModel()
    outcomes = [] if replay.baseline is None else [replay.baseline]
    for factory in factories[len(outcomes):]:
        policy = factory()
        simulator = GPUSimulator(arch, kernel, power_model, seed=seed,
                                 solution_cache=replay.solution_cache,
                                 noise_cache=replay.noise_cache)
        result = simulator.run(policy, keep_records=False)
        outcomes.append((result.time_s, result.energy_j, result.epochs,
                         policy_counters(policy)))
    return outcomes


def _fused_eval_group(task: tuple) -> tuple[list, dict[str, int]]:
    """Process-pool unit of a fused evaluation campaign: one task group.

    ``task`` is ``(context, entries)``: the context dict holds the
    policy factories, kernels and arch, and each entry is a small
    ``(factory_index, kernel_index, seed)`` tuple.  The
    group's simulators share one :class:`SolutionCache` and advance in
    lockstep through the fused engine.  Returns the serial-shaped
    per-task outcomes plus the engine's ``fused_*`` counters.
    """
    context, entries = task
    factories = context["factories"]
    kernels = context["kernels"]
    shared_cache = SolutionCache()
    engine = FusedCampaignEngine()
    # One noise cache per group: every task replaying the same
    # (kernel, seed) — the baseline plus each policy — shares the
    # position-indexed noise tracks instead of regenerating them.
    noise_cache: dict = {}
    num_sim_clusters = 0
    power_model = PowerModel()
    for position, (factory_index, kernel_index, seed) in enumerate(entries):
        simulator = GPUSimulator(
            context["arch"], kernels[kernel_index], power_model,
            seed=seed, solution_cache=shared_cache,
            noise_cache=noise_cache)
        num_sim_clusters += len(simulator.clusters)
        engine.add_task(position, simulator, factories[factory_index](),
                        keep_records=False)
    engine._count("fused_noise_shared", num_sim_clusters - len(noise_cache))
    results = engine.run()
    outcomes = []
    for task_state, result in zip(engine.tasks, results):
        outcomes.append((result.time_s, result.energy_j, result.epochs,
                         policy_counters(task_state.policy)))
    return outcomes, dict(engine.counters)


def compare_policies(policy_factories: dict[str, callable],
                     kernels: list[KernelProfile], arch: GPUArchConfig,
                     preset: float,
                     seed: int = 0,
                     workers: int | None = None,
                     stats: CampaignStats | None = None,
                     checkpoint: CampaignCheckpoint | None = None,
                     retries: int = 2,
                     timeout_s: float | None = None,
                     fused: bool = False,
                     fuse_width: int = 8,
                     replay: ReplaySet | None = None) -> ComparisonResult:
    """Evaluate a set of policies over a kernel list.

    ``policy_factories`` maps display names to zero-argument callables
    producing a *fresh* policy (stateful policies like F-LEMMA must not
    be reused across runs).  A default-level static baseline is always
    run for normalization.  Runs take 10 µs epochs and bill power with
    the unscaled :class:`PowerModel`.  The serial unit is one kernel:
    its baseline and policy runs share one solve cache and one set of
    noise tracks (see :func:`_kernel_task`).  ``replay`` carries those,
    and each kernel's baseline outcome, across the calls of one
    campaign — pass one :class:`ReplaySet` to every grid that runs the
    same kernels at the same seed, and each baseline is simulated once.
    Without it the call makes a fresh set, so nothing outlives it.  The
    fused path ignores ``replay`` and keeps its per-group caches.
    ``workers`` fans the kernels out over a process pool (picklable
    factories — e.g. ``functools.partial`` over module-level classes —
    required to actually parallelise; anything else falls back to
    serial); fan-out and ``checkpoint`` progress are per kernel.  Policy
    observability counters (``guard_*``, ``fault_*``,
    ``calibration_anomalies``) are folded into ``stats``;
    ``checkpoint``/``retries``/``timeout_s`` configure the resilient
    fan-out (see :func:`repro.parallel.parallel_map`).

    ``fused=True`` co-simulates consecutive runs of ``fuse_width``
    tasks in lockstep through :class:`FusedCampaignEngine` — results
    are bit-identical to the serial path (per-task RNG streams and
    final-epoch truncation are preserved exactly) while sharing one
    interval-solution cache per group and batching the counter build
    and inference across tasks.
    """
    names = list(policy_factories)
    factories = ([partial(StaticPolicy, arch.vf_table.default_level)]
                 + [policy_factories[name] for name in names])
    if fused:
        entries = []
        for kernel_index in range(len(kernels)):
            for factory_index in range(len(factories)):
                entries.append((factory_index, kernel_index, seed))
        context = {"factories": factories, "kernels": list(kernels),
                   "arch": arch}
        groups = fuse_groups(entries, fuse_width)
        group_results = parallel_map(
            _fused_eval_group, [(context, group) for group in groups],
            workers=workers, stats=stats, stage="evaluation",
            checkpoint=checkpoint, retries=retries, timeout_s=timeout_s)
        outcomes = []
        for group_outcomes, fused_counters in group_results:
            outcomes.extend(group_outcomes)
            if stats is not None:
                stats.counters.update(fused_counters)
        if stats is not None:
            stats.count("fused_groups", len(groups))
    else:
        replay = replay if replay is not None else ReplaySet()
        replays = [replay.entry(kernel, arch, seed) for kernel in kernels]
        per_kernel = parallel_map(
            _kernel_task,
            [(factories, kernel, arch, seed, kernel_replay)
             for kernel, kernel_replay in zip(kernels, replays)],
            workers=workers, stats=stats, stage="evaluation",
            checkpoint=checkpoint, retries=retries, timeout_s=timeout_s)
        # Recorded from the outcomes, so a resumed checkpoint or a
        # pooled run fills the set too.
        for kernel_replay, kernel_outcomes in zip(replays, per_kernel):
            kernel_replay.baseline = kernel_outcomes[0]
        outcomes = [outcome for kernel_outcomes in per_kernel
                    for outcome in kernel_outcomes]

    result = ComparisonResult(preset=preset)
    cursor = iter(outcomes)
    for kernel in kernels:
        base_time, base_energy, base_epochs, _ = next(cursor)
        base_edp = base_energy * base_time
        result.runs.append(PolicyRun(
            policy_name="baseline", kernel_name=kernel.name,
            time_s=base_time, energy_j=base_energy,
            normalized_edp=1.0, normalized_latency=1.0,
            epochs=base_epochs))
        for name in names:
            time_s, energy_j, epochs, counters = next(cursor)
            if stats is not None:
                stats.counters.update(counters)
            result.runs.append(PolicyRun(
                policy_name=name, kernel_name=kernel.name,
                time_s=time_s, energy_j=energy_j,
                normalized_edp=(energy_j * time_s) / base_edp,
                normalized_latency=time_s / base_time,
                epochs=epochs))
    return result
