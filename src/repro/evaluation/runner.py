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
from ..gpu.fused import (FusedCampaignEngine, SharedContextCache,
                         dump_shared, fuse_groups, release_shared)
from ..gpu.interval_model import SolutionCache
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import GPUSimulator
from ..parallel import CampaignCheckpoint, CampaignStats, parallel_map
from ..power.model import PowerModel
from ..core.policy import StaticPolicy
from ..units import us


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

    def edp_improvement_vs(self, policy_name: str,
                           reference_name: str) -> float:
        """Fractional mean-EDP improvement of ``policy`` vs ``reference``.

        Positive = ``policy`` is better (lower EDP).  This is the
        statistic behind the paper's headline percentages.
        """
        policy_edp = self.mean_normalized_edp(policy_name)
        reference_edp = self.mean_normalized_edp(reference_name)
        return 1.0 - policy_edp / reference_edp

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


def run_policy_on_kernel(policy, kernel: KernelProfile, arch: GPUArchConfig,
                         power_model: PowerModel | None = None,
                         seed: int = 0,
                         epoch_s: float = us(10)) -> tuple[float, float, int]:
    """Run one policy over one kernel; returns (time, energy, epochs)."""
    simulator = GPUSimulator(arch, kernel, power_model or PowerModel(),
                             seed=seed, epoch_s=epoch_s)
    result = simulator.run(policy, keep_records=False)
    return result.time_s, result.energy_j, result.epochs


def _policy_task(task: tuple) -> tuple[float, float, int, dict[str, int]]:
    """Process-pool unit of evaluation: one (policy, kernel) run.

    Takes the *factory* rather than a policy instance so every run gets
    a fresh policy, and builds its own simulator from the explicit seed
    — identical results whether run in-process or in a worker.  The
    policy's :meth:`observability_counters` (guard trips, injected
    faults, calibration anomalies) travel back with the metrics so the
    caller can fold them into campaign ``--stats``.
    """
    factory, kernel, arch, power_model, seed, epoch_s = task
    policy = factory()
    time_s, energy_j, epochs = run_policy_on_kernel(
        policy, kernel, arch, power_model, seed=seed, epoch_s=epoch_s)
    counters_fn = getattr(policy, "observability_counters", None)
    counters = counters_fn() if callable(counters_fn) else {}
    return time_s, energy_j, epochs, counters


#: Per-process cache of shared evaluation contexts, so a pool worker
#: attaches/unpickles each campaign's shared weights once, not per group.
_EVAL_CONTEXTS = SharedContextCache()


def _fused_eval_group(task: tuple) -> tuple[list, dict[str, int]]:
    """Process-pool unit of a fused evaluation campaign: one task group.

    ``task`` is ``(context_ref, entries)`` where the context (policy
    factories, kernels, arch, power model — with model weights living
    in shared memory) is shipped once per campaign and each entry is a
    small ``(factory_index, kernel_index, seed, epoch_s)`` tuple.  The
    group's simulators share one :class:`SolutionCache` and advance in
    lockstep through the fused engine.  Returns the serial-shaped per-task outcomes plus the
    engine's ``fused_*`` counters.
    """
    ref, entries = task
    context = _EVAL_CONTEXTS.get(ref)
    factories = context["factories"]
    kernels = context["kernels"]
    shared_cache = SolutionCache()
    engine = FusedCampaignEngine()
    # One noise cache per group: every task replaying the same
    # (kernel, seed) — the baseline plus each policy — shares the
    # position-indexed noise tracks instead of regenerating them.
    noise_cache: dict = {}
    num_sim_clusters = 0
    for position, (factory_index, kernel_index, seed, epoch_s) \
            in enumerate(entries):
        simulator = GPUSimulator(
            context["arch"], kernels[kernel_index], context["power_model"],
            seed=seed, epoch_s=epoch_s, solution_cache=shared_cache,
            noise_cache=noise_cache)
        num_sim_clusters += len(simulator.clusters)
        engine.add_task(position, simulator, factories[factory_index](),
                        keep_records=False)
    engine._count("fused_noise_shared", num_sim_clusters - len(noise_cache))
    results = engine.run()
    outcomes = []
    for task_state, result in zip(engine.tasks, results):
        counters_fn = getattr(task_state.policy, "observability_counters",
                              None)
        counters = counters_fn() if callable(counters_fn) else {}
        outcomes.append((result.time_s, result.energy_j, result.epochs,
                         counters))
    return outcomes, dict(engine.counters)


def compare_policies(policy_factories: dict[str, callable],
                     kernels: list[KernelProfile], arch: GPUArchConfig,
                     preset: float,
                     power_model: PowerModel | None = None,
                     seed: int = 0,
                     epoch_s: float = us(10),
                     workers: int | None = None,
                     stats: CampaignStats | None = None,
                     checkpoint: CampaignCheckpoint | None = None,
                     retries: int = 2,
                     timeout_s: float | None = None,
                     fused: bool = False,
                     fuse_width: int = 8) -> ComparisonResult:
    """Evaluate a set of policies over a kernel list.

    ``policy_factories`` maps display names to zero-argument callables
    producing a *fresh* policy (stateful policies like F-LEMMA must not
    be reused across runs).  A default-level static baseline is always
    run for normalization.  ``workers`` fans the policy × kernel grid
    out over a process pool (picklable factories — e.g.
    ``functools.partial`` over module-level classes — required to
    actually parallelise; anything else falls back to serial).  Policy
    observability counters (``guard_*``, ``fault_*``,
    ``calibration_anomalies``) are folded into ``stats``;
    ``checkpoint``/``retries``/``timeout_s`` configure the resilient
    fan-out (see :func:`repro.parallel.parallel_map`).

    ``fused=True`` co-simulates consecutive runs of ``fuse_width``
    tasks in lockstep through :class:`FusedCampaignEngine` — results
    are bit-identical to the serial path (per-task RNG streams and
    final-epoch truncation are preserved exactly) while sharing one
    interval-solution cache per group, batching the counter build
    across tasks and shipping model weights to worker processes once
    via shared memory.
    """
    power_model = power_model or PowerModel()
    names = list(policy_factories)
    baseline_factory = partial(StaticPolicy, arch.vf_table.default_level)
    if fused:
        factories = [baseline_factory] + [policy_factories[name]
                                          for name in names]
        entries = []
        for kernel_index in range(len(kernels)):
            for factory_index in range(len(factories)):
                entries.append((factory_index, kernel_index, seed, epoch_s))
        context = {"factories": factories, "kernels": list(kernels),
                   "arch": arch, "power_model": power_model}
        ref, block = dump_shared(context)
        groups = fuse_groups(entries, fuse_width)
        try:
            group_results = parallel_map(
                _fused_eval_group, [(ref, group) for group in groups],
                workers=workers, stats=stats, stage="evaluation",
                checkpoint=checkpoint, retries=retries, timeout_s=timeout_s)
        finally:
            release_shared(block)
        outcomes = []
        for group_outcomes, fused_counters in group_results:
            outcomes.extend(group_outcomes)
            if stats is not None:
                stats.merge_counters(fused_counters)
        if stats is not None:
            stats.count("fused_groups", len(groups))
            stats.count("fused_shared_bytes", ref.shared_bytes)
    else:
        tasks = []
        for kernel in kernels:
            tasks.append((baseline_factory, kernel, arch, power_model, seed,
                          epoch_s))
            for name in names:
                tasks.append((policy_factories[name], kernel, arch,
                              power_model, seed, epoch_s))
        outcomes = parallel_map(_policy_task, tasks, workers=workers,
                                stats=stats, stage="evaluation",
                                checkpoint=checkpoint, retries=retries,
                                timeout_s=timeout_s)

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
                stats.merge_counters(counters)
            result.runs.append(PolicyRun(
                policy_name=name, kernel_name=kernel.name,
                time_s=time_s, energy_j=energy_j,
                normalized_edp=(energy_j * time_s) / base_edp,
                normalized_latency=time_s / base_time,
                epochs=epochs))
    return result
