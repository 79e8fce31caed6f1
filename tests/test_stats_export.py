"""Dataset diagnostics and figure-data export."""

import json

import pytest

from repro.errors import DatasetError
from repro.datagen.stats import analyze_dataset
from repro.evaluation.export import export_fig4_json
from repro.evaluation.experiments import Fig4Result
from repro.evaluation.runner import ComparisonResult, PolicyRun


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report(small_dataset):
    return analyze_dataset(small_dataset, preset=0.10)


def test_report_counts(report, small_dataset):
    assert report.num_groups == small_dataset.num_groups
    assert report.num_records == small_dataset.num_breakpoints
    assert report.num_samples == small_dataset.num_samples


def test_report_identifies_sensitivity_classes(report):
    by_kernel = {s.kernel: s for s in report.per_kernel}
    assert by_kernel["t.compute"].frequency_sensitive
    assert not by_kernel["t.memory"].frequency_sensitive


def test_report_entropy_positive(report):
    """If the oracle labels carried no information, there would be
    nothing to learn; the diagnostic must detect real label diversity."""
    assert report.label_entropy_bits > 0.5


def test_report_correlations_in_range(report):
    for value in report.counter_label_correlation.values():
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


def test_report_renders(report):
    text = report.render()
    assert "Dataset diagnostics" in text
    assert "t.compute" in text
    assert "entropy" in text


def test_analyze_rejects_bad_preset(small_dataset):
    with pytest.raises(DatasetError):
        analyze_dataset(small_dataset, preset=1.5)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _comparison():
    comparison = ComparisonResult(preset=0.10)
    for policy in ("baseline", "alpha"):
        for kernel in ("k1", "k2"):
            comparison.runs.append(PolicyRun(
                policy_name=policy, kernel_name=kernel, time_s=1e-4,
                energy_j=1e-2, normalized_edp=0.9, normalized_latency=1.05,
                epochs=30))
    return comparison


def test_export_fig4_json_round_trip(tmp_path):
    result = Fig4Result(comparisons={0.10: _comparison()})
    path = tmp_path / "fig4.json"

    # headline() needs specific policies; patch a minimal set.
    comparison = result.comparisons[0.10]
    for policy in ("pcstall", "flemma", "ssmdvfs-pruned"):
        comparison.runs.append(PolicyRun(
            policy_name=policy, kernel_name="k1", time_s=1e-4,
            energy_j=1e-2, normalized_edp=0.95, normalized_latency=1.02,
            epochs=30))
    export_fig4_json(result, path)
    payload = json.loads(path.read_text())
    assert "0.10" in payload
    assert payload["0.10"]["alpha"]["k1"]["edp"] == pytest.approx(0.9)
    assert "headline" in payload
