"""End-to-end SSMDVFS build-up (paper Fig. 2).

``build_ssmdvfs`` chains every offline stage:

1. data generation over the training suite (§III-A),
2. feature selection — RFE down to three indirect features plus the
   direct power feature (§IV-A), or a user-fixed feature set,
3. training the base 5+4x20 Decision-maker/Calibrator pair (§III-D),
4. layer-wise-compressed 3+2x12 pair (§IV-B),
5. two-stage pruning with fine-tuning (§IV-C),

and packages each stage's pair as a deployable
:class:`~repro.core.combined.SSMDVFSModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..datagen.dataset import DVFSDataset, PreparedData
from ..datagen.protocol import ProtocolConfig, generate_for_suite
from ..datagen.rfe import RFEResult, RFESelector
from ..errors import ModelError
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..nn.compress import (PAPER_BASE_SPEC, PAPER_COMPRESSED_SPEC,
                           PAPER_PRUNE_PARAMS, TrainedPair, prune_and_finetune,
                           train_pair)
from ..nn.trainer import TrainConfig
from ..parallel import CampaignStats, parallel_map
from .combined import SSMDVFSModel

#: Model variants the pipeline can produce.
VARIANTS = ("base", "compressed", "pruned")


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the full offline build.

    The architectures and pruning parameters are the paper's
    (``PAPER_BASE_SPEC``, ``PAPER_COMPRESSED_SPEC``,
    ``PAPER_PRUNE_PARAMS``); RFE keeps three indirect features.
    """

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    feature_names: tuple[str, ...] | None = None  # None -> run RFE
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=120, patience=15, learning_rate=2e-3))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=40, patience=8, learning_rate=5e-4))
    seed: int = 0


@dataclass
class PipelineResult:
    """Everything the offline build produced."""

    dataset: DVFSDataset
    prepared: PreparedData
    feature_names: tuple[str, ...]
    rfe: RFEResult | None
    pairs: dict[str, TrainedPair]
    models: dict[str, SSMDVFSModel]

    def model(self, variant: str = "pruned") -> SSMDVFSModel:
        """Fetch a deployable model by variant name."""
        if variant not in self.models:
            raise ModelError(
                f"variant {variant!r} not built; have {sorted(self.models)}"
            )
        return self.models[variant]


def _package(pair: TrainedPair, prepared: PreparedData, arch: GPUArchConfig,
             variant: str) -> SSMDVFSModel:
    return SSMDVFSModel(
        decision_model=pair.decision,
        calibrator_model=pair.calibrator,
        feature_names=prepared.feature_names,
        issue_width=arch.issue_width,
        num_levels=prepared.num_levels,
        decision_scaler=prepared.decision_scaler,
        calibrator_scaler=prepared.calibrator_scaler,
        metadata={
            "variant": variant,
            "accuracy_pct": pair.accuracy_pct,
            "mape_pct": pair.mape_pct,
            "flops_dense": pair.flops_dense,
            "flops_sparse": pair.flops_sparse,
        },
    )


def _train_variant_task(decision_data, calibrator_data, num_levels: int,
                        task: tuple) -> tuple[str, TrainedPair]:
    """Train one pipeline variant's pair (module-level for fan-out)."""
    variant, spec, train_config, seed = task
    pair = train_pair(spec, decision_data, calibrator_data, num_levels,
                      train_config, seed=seed)
    return variant, pair


def build_from_dataset(dataset: DVFSDataset, arch: GPUArchConfig,
                       config: PipelineConfig | None = None,
                       variants: tuple[str, ...] = VARIANTS, *,
                       workers: int | None = None,
                       stats: CampaignStats | None = None
                       ) -> PipelineResult:
    """Run stages 2-5 on an existing dataset (datagen is expensive).

    ``workers`` fans the independent base/compressed trainings out
    through the campaign layer (the pruned variant depends on the
    compressed pair, so it fine-tunes afterwards); ``stats`` collects
    the stage timings plus the ``train_models`` / ``train_epochs``
    counters alongside RFE's own counters.
    """
    config = config or PipelineConfig()
    stats = stats if stats is not None else CampaignStats()
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ModelError(f"unknown variants: {sorted(unknown)}")
    if "pruned" in variants and "compressed" not in variants:
        raise ModelError("the pruned variant builds on the compressed one")

    rfe_result = None
    if config.feature_names is None:
        selector = RFESelector(dataset, arch.issue_width, seed=config.seed,
                               stats=stats)
        rfe_result = selector.run()
        feature_names = rfe_result.all_features
    else:
        feature_names = tuple(config.feature_names)

    prepared = dataset.prepare(feature_names, arch.issue_width,
                               seed=config.seed)

    pairs: dict[str, TrainedPair] = {}
    models: dict[str, SSMDVFSModel] = {}
    tasks = []
    if "base" in variants:
        tasks.append(("base", PAPER_BASE_SPEC, config.train, config.seed))
    if "compressed" in variants:
        tasks.append(("compressed", PAPER_COMPRESSED_SPEC, config.train,
                      config.seed + 1))
    if tasks:
        outputs = parallel_map(
            partial(_train_variant_task, prepared.decision,
                    prepared.calibrator, prepared.num_levels),
            tasks, workers=workers, stats=stats, stage="train_variants")
        for variant, pair in outputs:
            pairs[variant] = pair
            stats.count("train_models", 2)
            stats.count("train_epochs", pair.epochs_run)
    if "pruned" in variants:
        x1, x2 = PAPER_PRUNE_PARAMS
        with stats.stage("prune_finetune", tasks=1):
            pairs["pruned"] = prune_and_finetune(
                pairs["compressed"], x1, x2, prepared.decision,
                prepared.calibrator, config.finetune)
        stats.count("train_models", 2)
        stats.count("train_epochs", pairs["pruned"].epochs_run)
    for variant, pair in pairs.items():
        models[variant] = _package(pair, prepared, arch, variant)

    return PipelineResult(
        dataset=dataset,
        prepared=prepared,
        feature_names=feature_names,
        rfe=rfe_result,
        pairs=pairs,
        models=models,
    )


def build_ssmdvfs(arch: GPUArchConfig, kernels: list[KernelProfile],
                  config: PipelineConfig | None = None,
                  variants: tuple[str, ...] = VARIANTS, *,
                  workers: int | None = None,
                  stats: CampaignStats | None = None) -> PipelineResult:
    """The full offline build: data generation through pruned model."""
    config = config or PipelineConfig()
    dataset = DVFSDataset.from_breakpoints(generate_for_suite(
        kernels, arch, config.protocol, workers=workers, stats=stats))
    return build_from_dataset(dataset, arch, config, variants,
                              workers=workers, stats=stats)
