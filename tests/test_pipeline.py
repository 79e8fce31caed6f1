"""End-to-end pipeline build (Fig. 2)."""

import pytest

from repro.datagen.protocol import ProtocolConfig
from repro.errors import ModelError
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.nn.metrics import within_one_accuracy
from repro.nn.trainer import TrainConfig
from repro.parallel import CampaignStats
from repro.core.pipeline import (PipelineConfig, build_from_dataset,
                                 build_ssmdvfs)


def test_pipeline_builds_all_variants(small_pipeline):
    assert set(small_pipeline.pairs) == {"base", "compressed", "pruned"}
    assert set(small_pipeline.models) == {"base", "compressed", "pruned"}


def test_pipeline_feature_names_respected(small_pipeline):
    assert small_pipeline.feature_names == (
        "power_per_core", "ipc", "stall_mem_hazard",
        "stall_mem_hazard_nonload", "l1_read_miss")
    assert small_pipeline.rfe is None  # fixed features -> no RFE


def test_decision_quality_is_reasonable(small_pipeline):
    """On the small set the base pair must clearly beat chance (16.7 %)
    and be nearly always within one level."""
    pair = small_pipeline.pairs["base"]
    assert pair.accuracy_pct > 40.0
    prepared = small_pipeline.prepared
    preds = pair.decision.predict_class(prepared.decision.x_test)
    assert within_one_accuracy(preds, prepared.decision.y_test) > 0.8


def test_calibrator_quality_is_reasonable(small_pipeline):
    assert small_pipeline.pairs["base"].mape_pct < 15.0


def test_compression_reduces_flops(small_pipeline):
    base = small_pipeline.pairs["base"]
    compressed = small_pipeline.pairs["compressed"]
    pruned = small_pipeline.pairs["pruned"]
    assert compressed.flops_dense < base.flops_dense / 3
    assert pruned.flops_sparse < compressed.flops_dense
    # Table II shape: quality degrades only mildly under compression.
    assert pruned.accuracy_pct > base.accuracy_pct - 20.0


def test_pruned_variant_requires_compressed(small_dataset, small_arch):
    with pytest.raises(ModelError):
        build_from_dataset(small_dataset, small_arch,
                           PipelineConfig(feature_names=("ipc",)),
                           variants=("base", "pruned"))


def test_unknown_variant_rejected(small_dataset, small_arch):
    with pytest.raises(ModelError):
        build_from_dataset(small_dataset, small_arch,
                           PipelineConfig(feature_names=("ipc",)),
                           variants=("base", "quantum"))


def test_result_model_lookup(small_pipeline):
    assert small_pipeline.model("base") is small_pipeline.models["base"]
    with pytest.raises(ModelError):
        small_pipeline.model("nonexistent")


def test_metadata_propagated(small_pipeline):
    meta = small_pipeline.model("pruned").metadata
    assert meta["variant"] == "pruned"
    assert meta["flops_sparse"] <= meta["flops_dense"]


def test_build_ssmdvfs_reports_datagen_to_stats(small_arch):
    """``workers`` and ``stats`` reach data generation, and neither
    changes the model."""
    kernels = [
        KernelProfile("s.compute", [compute_phase("c", 120_000, warps=16)],
                      iterations=6, jitter=0.05),
        KernelProfile("s.memory", [memory_phase("m", 120_000, warps=40)],
                      iterations=6, jitter=0.05),
    ]
    config = PipelineConfig(
        protocol=ProtocolConfig(max_breakpoints_per_kernel=2, seed=7),
        feature_names=("power_per_core", "ipc"),
        train=TrainConfig(epochs=5, patience=5, seed=3), seed=3)
    plain = build_ssmdvfs(small_arch, kernels, config, variants=("base",))
    stats = CampaignStats()
    observed = build_ssmdvfs(small_arch, kernels, config, variants=("base",),
                             workers=2, stats=stats)
    modes = {stage.name: stage.mode for stage in stats.stages}
    assert modes["datagen"] in ("parallel", "fallback")
    assert stats.counters["solve_cache_hit"] > 0
    assert stats.counters["solve_cache_miss"] > 0
    assert (observed.model("base").to_bytes()
            == plain.model("base").to_bytes())
