"""Experiment result containers (synthetic inputs, no simulation)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.evaluation.experiments import (Fig3Result, Fig4Result,
                                          HardwareResult, Table2Result)
from repro.evaluation.runner import ComparisonResult, PolicyRun
from repro.hardware.asic import ASICReport
from repro.nn.compress import CompressionPoint, TrainedPair
from repro.nn.mlp import MLP
from repro.units import us


def _pair(acc, mape_value, sizes=(6, 12, 6)):
    rng = np.random.default_rng(0)
    return TrainedPair(decision=MLP(list(sizes), rng=rng),
                       calibrator=MLP([7, 11, 1], rng=rng),
                       accuracy_pct=acc, mape_pct=mape_value)


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

def test_table2_compression_math():
    result = Table2Result(base=_pair(70.0, 3.4, sizes=(6, 20, 20, 6)),
                          pruned=_pair(67.0, 4.6))
    assert result.flops_before > result.flops_after
    assert 0 < result.compression_pct < 100
    text = result.render()
    assert "Table II" in text
    assert "94.74" in text  # paper reference inlined


# ---------------------------------------------------------------------------
# Fig. 3
# ---------------------------------------------------------------------------

def _point(method, flops, acc, sparsity=0.0):
    return CompressionPoint(label=f"{method}{flops}", method=method,
                            flops=flops, accuracy_pct=acc, mape_pct=5.0,
                            sparsity=sparsity)


def test_fig3_knee_and_competitiveness():
    result = Fig3Result(
        layerwise=[_point("layerwise", 100, 60.0),
                   _point("layerwise", 500, 90.0),
                   _point("layerwise", 2000, 91.0)],
        pruning=[_point("pruning", 150, 55.0, sparsity=0.8),
                 _point("pruning", 600, 89.5, sparsity=0.5)],
    )
    assert result.knee_flops(accuracy_drop_pp=5.0) == 500
    assert result.has_knee()
    assert result.pruning_competitive(tolerance_pp=4.0)
    assert not result.pruning_competitive(tolerance_pp=0.5)
    assert "Fig. 3" in result.render()


def test_fig3_dominance_check():
    result = Fig3Result(
        layerwise=[_point("layerwise", 100, 80.0),
                   _point("layerwise", 1000, 90.0)],
        pruning=[_point("pruning", 90, 92.0, sparsity=0.7)],
    )
    assert result.pruning_dominates()


# ---------------------------------------------------------------------------
# Fig. 4
# ---------------------------------------------------------------------------

def _comparison(edps):
    comparison = ComparisonResult(preset=0.10)
    for policy, edp in edps.items():
        comparison.runs.append(PolicyRun(
            policy_name=policy, kernel_name="k", time_s=1e-4,
            energy_j=1e-2, normalized_edp=edp, normalized_latency=1.05,
            epochs=30))
    return comparison


def test_fig4_headline_math():
    result = Fig4Result(comparisons={
        0.10: _comparison({"baseline": 1.0, "pcstall": 0.9,
                           "flemma": 1.1, "ssmdvfs-pruned": 0.85}),
    })
    headline = result.headline()
    assert headline["vs_baseline"] == pytest.approx(0.15)
    assert headline["vs_pcstall"] == pytest.approx(1 - 0.85 / 0.9)
    assert headline["vs_flemma"] == pytest.approx(1 - 0.85 / 1.1)


def test_fig4_headline_falls_back_to_base_variant():
    result = Fig4Result(comparisons={
        0.10: _comparison({"baseline": 1.0, "pcstall": 0.9,
                           "flemma": 1.1, "ssmdvfs": 0.88}),
    })
    assert result.headline()["vs_baseline"] == pytest.approx(0.12)


def test_fig4_empty_rejected():
    with pytest.raises(ReproError):
        Fig4Result().headline()
    with pytest.raises(ReproError):
        Fig4Result().mean_over_presets("edp", "x")


def test_fig4_unknown_metric_rejected():
    result = Fig4Result(comparisons={0.10: _comparison({"baseline": 1.0})})
    with pytest.raises(ReproError):
        result.mean_over_presets("power", "baseline")


# ---------------------------------------------------------------------------
# Hardware
# ---------------------------------------------------------------------------

def test_hardware_result_render():
    report = ASICReport(cycles_per_inference=200, latency_s=0.17e-6,
                        area_mm2_reference=0.03, area_mm2_scaled=0.008,
                        energy_per_inference_j=0.5e-9, power_w_scaled=0.003,
                        node_nm=28)
    result = HardwareResult(report=report, epoch_s=us(10))
    text = result.render()
    assert "Section V-D" in text
    assert "192" in text  # paper reference column
