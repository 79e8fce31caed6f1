"""Experiment drivers — one per table/figure of the paper.

Each driver returns a structured result object and can render the
paper's artefact as text.  Benchmarks under ``benchmarks/`` call these
with appropriately sized workloads; ``EXPERIMENTS.md`` records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..datagen.dataset import DVFSDataset
from ..datagen.rfe import RFEResult, RFESelector
from ..errors import ReproError
from ..gpu.arch import GPUArchConfig
from ..gpu.counters import PAPER_ALIASES, paper_category
from ..gpu.kernels import KernelProfile
from ..hardware.asic import ASICModel, ASICReport
from ..nn.compress import (CompressionPoint, TrainedPair,
                           default_layerwise_grid, default_pruning_grid,
                           layer_wise_sweep, pruning_sweep)
from ..nn.trainer import TrainConfig
from ..core.combined import SSMDVFSModel
from ..core.controller import SSMDVFSController
from ..core.pipeline import PipelineResult
from ..baselines.flemma import FLEMMAPolicy
from ..baselines.pcstall import PCSTALLPolicy
from ..parallel import CampaignStats, content_key
from ..units import us
from .cache import cached_comparison
from .reporting import format_percent, format_table
from .runner import ComparisonResult, ReplaySet, compare_policies

# ---------------------------------------------------------------------------
# Table I — feature selection
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    """RFE outcome mapped onto the paper's Table I."""

    rfe: RFEResult
    selected_with_categories: list[tuple[str, str]]

    def paper_alias(self, counter: str) -> str:
        """The paper's short name for a counter, if it has one."""
        for alias, name in PAPER_ALIASES.items():
            if name == counter:
                return alias
        return counter

    def render(self) -> str:
        """Text rendering of the reproduced Table I."""
        rows = [[category, self.paper_alias(name), name]
                for name, category in self.selected_with_categories]
        table = format_table(["Metric category", "Alias", "Counter"], rows,
                             title="Table I - selected performance counters")
        drop = self.rfe.accuracy_drop_pct
        return (f"{table}\n"
                f"accuracy: all-features {self.rfe.full_accuracy * 100:.2f}% "
                f"-> selected {self.rfe.selected_accuracy * 100:.2f}% "
                f"(drop {drop:.2f} pp; paper reports 0.48 pp)")


def run_table1(dataset: DVFSDataset, arch: GPUArchConfig, seed: int = 0,
               stats: CampaignStats | None = None) -> Table1Result:
    """Reproduce Table I: RFE down to three indirect features + power."""
    selector = RFESelector(dataset, arch.issue_width, seed=seed, stats=stats)
    rfe = selector.run()
    selected = [(name, paper_category(name)) for name in rfe.all_features]
    return Table1Result(rfe=rfe, selected_with_categories=selected)


# ---------------------------------------------------------------------------
# Table II — final model information
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """Before/after-compression model card (paper Table II)."""

    base: TrainedPair
    pruned: TrainedPair

    @property
    def flops_before(self) -> int:
        """Dense FLOPs of the uncompressed pair."""
        return self.base.flops_dense

    @property
    def flops_after(self) -> int:
        """Sparse FLOPs of the compressed+pruned pair."""
        return self.pruned.flops_sparse

    @property
    def compression_pct(self) -> float:
        """FLOPs reduction (paper: 94.74 %)."""
        return 100.0 * (1.0 - self.flops_after / self.flops_before)

    def render(self) -> str:
        """Text rendering of the reproduced Table II."""
        rows = [
            ["Decision structure",
             "x".join(str(s) for s in self.base.decision.layer_sizes),
             "x".join(str(s) for s in self.pruned.decision.layer_sizes)],
            ["Calibrator structure",
             "x".join(str(s) for s in self.base.calibrator.layer_sizes),
             "x".join(str(s) for s in self.pruned.calibrator.layer_sizes)],
            ["FLOPs", self.flops_before, self.flops_after],
            ["Accuracy (%)", round(self.base.accuracy_pct, 2),
             round(self.pruned.accuracy_pct, 2)],
            ["MAPE (%)", round(self.base.mape_pct, 2),
             round(self.pruned.mape_pct, 2)],
        ]
        table = format_table(
            ["Model information", "Before compression", "After compression"],
            rows, title="Table II - final model information")
        return (f"{table}\ncompression: {self.compression_pct:.2f}% "
                f"FLOPs reduction (paper reports 94.74%)")


def run_table2(pipeline: PipelineResult) -> Table2Result:
    """Reproduce Table II from a finished pipeline build."""
    if "base" not in pipeline.pairs or "pruned" not in pipeline.pairs:
        raise ReproError("pipeline must build the base and pruned variants")
    return Table2Result(base=pipeline.pairs["base"],
                        pruned=pipeline.pairs["pruned"])


# ---------------------------------------------------------------------------
# Fig. 3 — FLOPs vs accuracy / MAPE frontiers
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Layer-wise and pruning compression frontiers."""

    layerwise: list[CompressionPoint]
    pruning: list[CompressionPoint]

    def _sorted(self, points: list[CompressionPoint]
                ) -> list[CompressionPoint]:
        return sorted(points, key=lambda p: p.flops)

    def knee_flops(self, accuracy_drop_pp: float = 5.0) -> int:
        """FLOPs below which layer-wise accuracy falls off a cliff."""
        points = self._sorted(self.layerwise)
        best = max(p.accuracy_pct for p in points)
        for point in points:
            if point.accuracy_pct >= best - accuracy_drop_pp:
                return point.flops
        return points[-1].flops

    def pruning_dominates(self) -> bool:
        """Paper claim: the pruning frontier beats layer-wise compression.

        Checked as: among points in the compressed-FLOPs regime (below
        the layer-wise median), the best pruning accuracy is at least
        the best layer-wise accuracy minus 1 pp.  On this substrate the
        claim does *not* always hold — the supervised task is cleaner
        than the paper's, so retraining a small architecture from
        scratch is unusually strong; EXPERIMENTS.md records the
        deviation.
        """
        cut = float(np.median([p.flops for p in self.layerwise]))
        small_layer = [p.accuracy_pct for p in self.layerwise if p.flops <= cut]
        small_prune = [p.accuracy_pct for p in self.pruning if p.flops <= cut]
        if not small_layer or not small_prune:
            return False
        return max(small_prune) >= max(small_layer) - 1.0

    def pruning_competitive(self, tolerance_pp: float = 4.0) -> bool:
        """Weaker, substrate-robust form of the paper's Fig. 3 claim:
        the best pruning point reaches within ``tolerance_pp`` of the
        best layer-wise accuracy while being sparse."""
        best_layer = max(p.accuracy_pct for p in self.layerwise)
        best_prune = max((p for p in self.pruning if p.sparsity > 0.1),
                         key=lambda p: p.accuracy_pct, default=None)
        if best_prune is None:
            return False
        return best_prune.accuracy_pct >= best_layer - tolerance_pp

    def has_knee(self) -> bool:
        """True when accuracy collapses by more than 5 pp below some FLOPs
        threshold in both frontiers (the qualitative shape of Fig. 3)."""
        def collapsed(points):
            best = max(p.accuracy_pct for p in points)
            worst = min(points, key=lambda p: p.flops)
            return worst.accuracy_pct < best - 5.0
        return collapsed(self.layerwise) and collapsed(self.pruning)

    def render(self) -> str:
        """Text rendering of both frontiers (Fig. 3 as a table)."""
        rows = []
        for point in self._sorted(self.layerwise) + self._sorted(self.pruning):
            rows.append([point.method, point.label, point.flops,
                         round(point.accuracy_pct, 2),
                         round(point.mape_pct, 2)])
        return format_table(
            ["Method", "Config", "FLOPs", "Accuracy (%)", "MAPE (%)"],
            rows, title="Fig. 3 - FLOPs vs accuracy and MAPE")


def run_fig3(pipeline: PipelineResult, specs=None, grid=None,
             train_config: TrainConfig | None = None,
             seed: int = 0) -> Fig3Result:
    """Reproduce Fig. 3's two compression frontiers."""
    prepared = pipeline.prepared
    train_config = train_config or TrainConfig(
        epochs=60, patience=10, learning_rate=2e-3)
    layerwise = layer_wise_sweep(
        prepared.decision, prepared.calibrator, prepared.num_levels,
        specs=specs or default_layerwise_grid(), config=train_config,
        seed=seed)
    base_pair = pipeline.pairs.get("base")
    if base_pair is None:
        raise ReproError("pipeline must include the base variant for Fig. 3")
    pruning = pruning_sweep(base_pair, prepared.decision, prepared.calibrator,
                            grid=grid or default_pruning_grid())
    return Fig3Result(layerwise=layerwise, pruning=pruning)


# ---------------------------------------------------------------------------
# Fig. 4 — full-system EDP / latency comparison
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Normalized EDP and latency for every policy at each preset."""

    comparisons: dict[float, ComparisonResult] = field(default_factory=dict)

    def mean_over_presets(self, metric: str, policy: str) -> float:
        """Average a policy metric over all presets."""
        values = []
        for comparison in self.comparisons.values():
            if metric == "edp":
                values.append(comparison.mean_normalized_edp(policy))
            elif metric == "latency":
                values.append(comparison.mean_normalized_latency(policy))
            else:
                raise ReproError(f"unknown metric {metric!r}")
        if not values:
            raise ReproError("no comparisons run")
        return float(np.mean(values))

    def _default_ssm_policy(self) -> str:
        """Pick the headline SSMDVFS variant present in the runs."""
        if not self.comparisons:
            raise ReproError("no comparisons run")
        policies = next(iter(self.comparisons.values())).policies()
        for candidate in ("ssmdvfs-pruned", "ssmdvfs"):
            if candidate in policies:
                return candidate
        raise ReproError("no SSMDVFS policy in the comparison")

    def headline(self, ssm_policy: str | None = None) -> dict[str, float]:
        """The paper's §V-C aggregate improvements (fractions)."""
        if ssm_policy is None:
            ssm_policy = self._default_ssm_policy()
        edp_ssm = self.mean_over_presets("edp", ssm_policy)
        return {
            "vs_baseline": 1.0 - edp_ssm,
            "vs_pcstall": 1.0 - edp_ssm / self.mean_over_presets(
                "edp", "pcstall"),
            "vs_flemma": 1.0 - edp_ssm / self.mean_over_presets(
                "edp", "flemma"),
        }

    def render(self) -> str:
        """Per-kernel normalized EDP / latency tables, one per preset."""
        blocks = []
        for preset, comparison in sorted(self.comparisons.items()):
            headers = ["Kernel"] + [f"{p} EDP" for p in comparison.policies()
                                    if p != "baseline"]
            rows = []
            for kernel in comparison.kernels():
                row = [kernel]
                for policy in comparison.policies():
                    if policy == "baseline":
                        continue
                    match = [r for r in comparison.series(policy)
                             if r.kernel_name == kernel]
                    row.append(round(match[0].normalized_edp, 3)
                               if match else "-")
                rows.append(row)
            blocks.append(format_table(
                headers, rows,
                title=f"Fig. 4 - normalized EDP, preset {preset:.0%}"))
            lat_rows = [[p,
                         round(comparison.mean_normalized_edp(p), 3),
                         round(comparison.mean_normalized_latency(p), 3)]
                        for p in comparison.policies()]
            blocks.append(format_table(
                ["Policy", "mean EDP", "mean latency"], lat_rows))
        head = self.headline()
        blocks.append(
            "headline: EDP "
            f"{format_percent(head['vs_baseline'])} vs baseline "
            f"(paper 11.09%), {format_percent(head['vs_pcstall'])} vs "
            "PCSTALL (paper 13.17%), "
            f"{format_percent(head['vs_flemma'])} vs F-LEMMA "
            "(paper 36.80%)")
        return "\n\n".join(blocks)


def fig4_policy_factories(models: dict[str, SSMDVFSModel], preset: float,
                          seed: int = 0) -> dict[str, callable]:
    """The policy line-up of Fig. 4 for one preset.

    Factories are :func:`functools.partial` objects over module-level
    classes, so the evaluation grid can pickle them into worker
    processes when a campaign runs with ``workers > 1``.
    """
    factories: dict[str, callable] = {
        "pcstall": partial(PCSTALLPolicy, preset),
        "flemma": partial(FLEMMAPolicy, preset, seed=seed),
    }
    if "base" in models:
        factories["ssmdvfs"] = partial(SSMDVFSController, models["base"],
                                       preset)
        factories["ssmdvfs-nocal"] = partial(SSMDVFSController,
                                             models["base"], preset,
                                             use_calibrator=False)
    if "pruned" in models:
        factories["ssmdvfs-pruned"] = partial(SSMDVFSController,
                                              models["pruned"], preset)
    return factories


def fig4_cache_token(models: dict[str, SSMDVFSModel]) -> str:
    """Identify the model line-up for the evaluation-grid cache key."""
    return content_key({name: repr(sorted(
        getattr(model, "metadata", {}).items()))
        for name, model in sorted(models.items())})


def run_fig4(models: dict[str, SSMDVFSModel], kernels: list[KernelProfile],
             arch: GPUArchConfig, presets: tuple[float, ...] = (0.10, 0.20),
             seed: int = 0, workers: int | None = None,
             stats: CampaignStats | None = None,
             cache_dir: str | None = None, use_cache: bool = True,
             checkpoint: bool = False, retries: int = 2,
             timeout_s: float | None = None,
             fused: bool = False, fuse_width: int = 8) -> Fig4Result:
    """Reproduce Fig. 4 across presets and the full policy line-up.

    ``workers`` fans each preset's policy × kernel grid out over a
    process pool.  With ``cache_dir`` set, finished grids are cached
    on disk keyed by the kernel suite, arch, preset, seed and
    :func:`fig4_cache_token` (a hash of the models' metadata), and
    ``checkpoint=True`` lets each interrupted grid resume mid-campaign;
    ``retries``/``timeout_s`` tune the resilient fan-out.  The presets
    run the same kernels at the same seed, so one
    :class:`~repro.evaluation.runner.ReplaySet` spans them: each
    kernel's baseline is simulated once for the whole campaign and its
    solve cache and noise tracks serve every preset's grid.
    ``fused``/``fuse_width`` co-simulate each grid through the fused
    campaign engine — bit-identical results, so fused and cached serial
    grids interoperate (see
    :func:`repro.evaluation.runner.compare_policies`).
    """
    result = Fig4Result()
    replay = ReplaySet()
    for preset in presets:
        factories = fig4_policy_factories(models, preset, seed=seed)
        if cache_dir is not None:
            result.comparisons[preset] = cached_comparison(
                cache_dir, factories, kernels, arch, preset, seed=seed,
                cache_token=fig4_cache_token(models),
                workers=workers, stats=stats, use_cache=use_cache,
                checkpoint=checkpoint, retries=retries, timeout_s=timeout_s,
                fused=fused, fuse_width=fuse_width, replay=replay)
        else:
            result.comparisons[preset] = compare_policies(
                factories, kernels, arch, preset, seed=seed,
                workers=workers, stats=stats,
                retries=retries, timeout_s=timeout_s,
                fused=fused, fuse_width=fuse_width, replay=replay)
    return result


# ---------------------------------------------------------------------------
# §V-D — hardware implementation
# ---------------------------------------------------------------------------


@dataclass
class HardwareResult:
    """ASIC cost of the deployed module vs the paper's numbers."""

    report: ASICReport
    epoch_s: float
    gpu_tdp_w: float

    def render(self) -> str:
        """Text rendering of the §V-D cost summary."""
        r = self.report
        rows = [
            ["cycles / inference", r.cycles_per_inference, 192],
            ["latency (us)", round(r.latency_us, 3), 0.16],
            [f"area @{r.node_nm}nm (mm^2)", round(r.area_mm2_scaled, 4),
             0.0080],
            ["power (W)", round(r.power_w_scaled, 4), 0.0025],
            ["epoch fraction (%)",
             round(100 * r.epoch_fraction(self.epoch_s), 2), 1.65],
        ]
        return format_table(["Quantity", "Measured", "Paper"], rows,
                            title="SSMDVFS ASIC module (Section V-D)")


def run_hardware(model: SSMDVFSModel, epoch_s: float = us(10),
                 gpu_tdp_w: float = 250.0) -> HardwareResult:
    """Reproduce the §V-D ASIC cost analysis for a deployed model."""
    report = ASICModel().report([model.decision_model, model.calibrator_model],
                         sparse=True, node_nm=28)
    return HardwareResult(report=report, epoch_s=epoch_s, gpu_tdp_w=gpu_tdp_w)
