"""Robustness studies: seed sweeps, counter noise, and fault sweeps.

Analyses beyond the paper's single-configuration evaluation:

* **Seed sweeps** — re-run a policy comparison across simulator seeds
  and report mean +- std of the aggregate metrics, so "SSMDVFS beats X
  by Y %" comes with an error bar.
* **Counter noise** — real hardware counters sampled over 10 µs windows
  are noisy.  :class:`NoisyCountersPolicy` wraps any policy and
  perturbs every counter it observes with multiplicative Gaussian
  noise, quantifying how gracefully each controller degrades.
* **Fault sweeps** — :func:`fault_sweep` runs each policy under the
  :mod:`repro.faults` scenarios (sensor dropout, stuck registers, NaN
  poisoning, spikes, actuation faults) across a rate grid and reports
  preset-violation statistics plus guard/fault counters per cell —
  the campaign behind the ``repro-ssmdvfs faults`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..errors import PolicyError, SimulationError
from ..faults import config_for_mode, build_faulty_policy
from ..gpu.counters import COUNTER_NAMES, CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from ..gpu.kernels import KernelProfile
from ..gpu.arch import GPUArchConfig
from ..parallel import CampaignStats
from .runner import ComparisonResult, ReplaySet, compare_policies


class NoisyCountersPolicy:
    """Wrap a policy; corrupt the counters it sees with relative noise."""

    def __init__(self, inner, sigma: float, seed: int = 0) -> None:
        if sigma < 0:
            raise PolicyError("noise sigma cannot be negative")
        self.inner = inner
        self.sigma = float(sigma)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = f"{inner.name}+noise{sigma:g}"

    def reset(self, simulator: GPUSimulator) -> None:
        """Re-seed the noise stream and reset the wrapped policy."""
        self._rng = np.random.default_rng(self.seed)
        self.inner.reset(simulator)

    def _perturb(self, counters: CounterSet) -> CounterSet:
        if self.sigma == 0.0:
            return counters
        noisy = CounterSet()
        factors = np.maximum(
            0.0, 1.0 + self.sigma * self._rng.standard_normal(
                len(COUNTER_NAMES)))
        for name, factor in zip(COUNTER_NAMES, factors):
            value = counters[name]
            if value != 0.0:
                noisy[name] = value * factor
        return noisy

    def decide(self, record: EpochRecord):
        """Forward a counter-perturbed copy of the record."""
        return self.inner.decide(replace(
            record, counters=self._perturb(record.counters),
            cluster_counters=[self._perturb(c)
                              for c in record.cluster_counters]))


@dataclass
class SeedSweepResult:
    """Aggregate metrics across seeds, per policy."""

    seeds: list[int]
    mean_edp: dict[str, float] = field(default_factory=dict)
    std_edp: dict[str, float] = field(default_factory=dict)
    mean_latency: dict[str, float] = field(default_factory=dict)
    std_latency: dict[str, float] = field(default_factory=dict)
    comparisons: list[ComparisonResult] = field(default_factory=list)

    def render(self) -> str:
        """Mean +- std table across seeds."""
        from .reporting import format_table
        rows = []
        for policy in self.mean_edp:
            rows.append([
                policy,
                f"{self.mean_edp[policy]:.3f} +- {self.std_edp[policy]:.3f}",
                f"{self.mean_latency[policy]:.3f} +- "
                f"{self.std_latency[policy]:.3f}",
            ])
        return format_table(["Policy", "EDP (mean +- std)",
                             "latency (mean +- std)"], rows,
                            title=f"Seed sweep over {self.seeds}")


def seed_sweep(policy_factories: dict[str, callable],
               kernels: list[KernelProfile], arch: GPUArchConfig,
               preset: float, seeds: list[int],
               fused: bool = False, fuse_width: int = 8) -> SeedSweepResult:
    """Run the comparison under several simulator seeds."""
    if not seeds:
        raise SimulationError("need at least one seed")
    result = SeedSweepResult(seeds=list(seeds))
    per_policy_edp: dict[str, list[float]] = {}
    per_policy_lat: dict[str, list[float]] = {}
    for seed in seeds:
        comparison = compare_policies(policy_factories, kernels, arch,
                                      preset, seed=seed,
                                      fused=fused, fuse_width=fuse_width)
        result.comparisons.append(comparison)
        for policy in comparison.policies():
            per_policy_edp.setdefault(policy, []).append(
                comparison.mean_normalized_edp(policy))
            per_policy_lat.setdefault(policy, []).append(
                comparison.mean_normalized_latency(policy))
    for policy, values in per_policy_edp.items():
        result.mean_edp[policy] = float(np.mean(values))
        result.std_edp[policy] = float(np.std(values))
    for policy, values in per_policy_lat.items():
        result.mean_latency[policy] = float(np.mean(values))
        result.std_latency[policy] = float(np.std(values))
    return result


# ---------------------------------------------------------------------------
# Fault sweeps
# ---------------------------------------------------------------------------

@dataclass
class FaultSweepCell:
    """One (fault mode, rate, policy) measurement of a fault sweep."""

    mode: str
    rate: float
    policy: str
    mean_edp: float
    mean_latency: float
    violations: int
    kernels: int
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class FaultSweepResult:
    """All cells of one fault sweep, plus the violation criterion."""

    preset: float
    slack: float
    cells: list[FaultSweepCell] = field(default_factory=list)

    def total_violations(self) -> int:
        """Summed preset violations across every cell."""
        return sum(c.violations for c in self.cells)

    def guard_engagements(self) -> int:
        """Summed guard trips across every cell (0 when unguarded)."""
        return sum(c.counters.get("guard_trips", 0) for c in self.cells)

    def render(self) -> str:
        """Per-cell table: metrics, violations and headline counters."""
        from .reporting import format_table
        rows = []
        for c in self.cells:
            faults = sum(v for k, v in c.counters.items()
                         if k.startswith("fault_"))
            rows.append([
                c.mode, f"{c.rate:g}", c.policy,
                f"{c.mean_edp:.3f}", f"{c.mean_latency:.3f}",
                f"{c.violations}/{c.kernels}",
                str(faults),
                str(c.counters.get("guard_trips", 0)),
                str(c.counters.get("guard_recoveries", 0)),
            ])
        title = (f"Fault sweep (preset {self.preset:g}, violation = "
                 f"latency > {1 + self.preset + self.slack:.3f}x baseline)")
        return format_table(
            ["mode", "rate", "policy", "EDP", "latency", "viol",
             "faults", "trips", "recov"], rows, title=title)


def fault_sweep(policy_factories: dict[str, callable],
                kernels: list[KernelProfile], arch: GPUArchConfig,
                preset: float, modes: list[str], rates: list[float], *,
                guard: bool = True, slack: float = 0.05, seed: int = 0,
                workers: int | None = None,
                stats: CampaignStats | None = None,
                fused: bool = False,
                fuse_width: int = 8) -> FaultSweepResult:
    """Sweep fault modes × rates over every policy.

    Each policy is wrapped per :func:`repro.faults.build_faulty_policy`
    — a :class:`~repro.core.guarded.GuardedController` inside (unless
    ``guard=False``) and the fault injector outside, exactly as faults
    would hit a deployed controller.  A run *violates* the preset when
    its latency exceeds ``1 + preset + slack`` times the fault-free
    static baseline; ``slack`` absorbs the controller's honest noise
    floor so the statistic isolates fault-induced breakage.  Fault and
    guard counters are attributed per cell and also folded into
    ``stats`` when given.  Every cell runs the same kernels at the same
    seed, so one :class:`~repro.evaluation.runner.ReplaySet` spans the
    sweep: the fault-free baseline is simulated once per kernel, not
    once per cell, and the cells share its solve cache and noise tracks.
    ``fused``/``fuse_width`` co-simulate each cell's runs through the
    fused campaign engine (bit-identical; see
    :func:`repro.evaluation.runner.compare_policies`).
    """
    if not modes or not rates:
        raise SimulationError("need at least one fault mode and one rate")
    threshold = 1.0 + preset + slack
    result = FaultSweepResult(preset=preset, slack=slack)
    replay = ReplaySet()
    for mode in modes:
        for rate in rates:
            config = config_for_mode(mode, rate, seed=seed)
            for name, factory in policy_factories.items():
                cell_stats = CampaignStats()
                wrapped = partial(build_faulty_policy, factory, config,
                                  guard=guard)
                comparison = compare_policies(
                    {name: wrapped}, kernels, arch, preset, seed=seed,
                    workers=workers, stats=cell_stats,
                    fused=fused, fuse_width=fuse_width, replay=replay)
                runs = comparison.series(name)
                violations = sum(1 for r in runs
                                 if r.normalized_latency > threshold)
                counters = {k: v for k, v in cell_stats.counters.items()
                            if k.startswith(("fault_", "guard_"))
                            or k == "calibration_anomalies"}
                result.cells.append(FaultSweepCell(
                    mode=mode, rate=rate, policy=name,
                    mean_edp=comparison.mean_normalized_edp(name),
                    mean_latency=comparison.mean_normalized_latency(name),
                    violations=violations, kernels=len(runs),
                    counters=counters))
                if stats is not None:
                    stats.counters.update(cell_stats.counters)
    return result
