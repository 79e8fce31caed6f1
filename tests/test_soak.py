"""Chaos soak: self-healing, invariants, reproducibility, CLI gate."""

import json

import pytest

from repro.cli import main
from repro.core.combined import SSMDVFSModel
from repro.errors import PolicyError
from repro.evaluation.soak import (SOAK_ARTIFACT, SoakConfig, SoakResult,
                                   run_soak)
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase
from repro.store import ArtifactStore, write_json
from repro.workloads.suites import scale_kernel_to_duration


@pytest.fixture(scope="module")
def soak_kernels(small_arch):
    kernels = [
        KernelProfile("s.compute", [compute_phase("c", 150_000, warps=16)],
                      iterations=8, jitter=0.06),
        KernelProfile("s.balanced", [balanced_phase("b", 150_000)],
                      iterations=8, jitter=0.06),
    ]
    return [scale_kernel_to_duration(k, small_arch, 1000e-6)
            for k in kernels]


@pytest.fixture(scope="module")
def soak_result(small_pipeline, small_arch, soak_kernels, tmp_path_factory):
    model = small_pipeline.models["base"]
    root = tmp_path_factory.mktemp("soak-store")
    config = SoakConfig(seed=7, crash_write_trials=8)
    return run_soak(model, soak_kernels, small_arch, root, config), root


def test_soak_config_validates():
    with pytest.raises(PolicyError):
        SoakConfig(stale_sigma=-1.0)
    with pytest.raises(PolicyError):
        SoakConfig(recovery_epochs=0)


def test_soak_invariants_hold_and_heal(soak_result):
    result, _ = soak_result
    assert result.passed, result.violations
    assert len(result.records) == 2
    for record in result.records:
        # Self-healing demonstrated: the injected staleness was
        # detected and rolled back within the budget.
        assert record.alarm_epoch is not None
        assert record.alarm_epoch >= record.stale_epoch
        assert record.healed_epoch is not None
        assert record.healed_by == "hot_swap"
        assert record.invalid_decisions == 0
        assert record.normalized_latency <= result.latency_tolerance
    assert result.crash_trials > 0
    assert result.crash_torn_reads == 0
    assert result.counters.get("rollback_hot_swaps", 0) >= 2
    assert result.counters.get("drift_alarms", 0) >= 2


def test_soak_seeds_registry_with_trusted_pair(soak_result, small_pipeline):
    _, root = soak_result
    store = ArtifactStore(root)
    assert store.last_known_good(SOAK_ARTIFACT) == 1
    blob = store.get(SOAK_ARTIFACT)
    restored = SSMDVFSModel.from_bytes(blob)
    assert restored.verify()
    # The soak drove a copy: the registry pair is the pristine one.
    assert blob == small_pipeline.models["base"].to_bytes()


def test_soak_is_seed_reproducible(small_pipeline, small_arch, soak_kernels,
                                   soak_result, tmp_path):
    first, _ = soak_result
    again = run_soak(small_pipeline.models["base"], soak_kernels, small_arch,
                     tmp_path, SoakConfig(seed=7, crash_write_trials=8))
    assert (json.dumps(first.to_payload(), sort_keys=True)
            == json.dumps(again.to_payload(), sort_keys=True))


def test_soak_rerun_into_one_store_exports_identical_bytes(
        small_pipeline, small_arch, soak_kernels, tmp_path):
    model = small_pipeline.models["base"]
    config = SoakConfig(seed=7, crash_write_trials=4)
    store_root = tmp_path / "store"
    exports = []
    for run in range(2):
        result = run_soak(model, soak_kernels[:1], small_arch, store_root,
                          config)
        exports.append(write_json(tmp_path / f"run{run}.json",
                                  result.to_payload()).read_bytes())
    assert exports[0] == exports[1]
    assert ArtifactStore(store_root).last_known_good(SOAK_ARTIFACT) == 1


def test_soak_tiny_recovery_budget_reports_violation(small_pipeline,
                                                     small_arch,
                                                     soak_kernels, tmp_path):
    config = SoakConfig(seed=7, recovery_epochs=1, crash_write_trials=0)
    result = run_soak(small_pipeline.models["base"], soak_kernels[:1],
                      small_arch, tmp_path, config)
    assert not result.passed
    assert any("recovery took" in violation
               for violation in result.violations)


def test_soak_export_and_render(soak_result, tmp_path):
    result, _ = soak_result
    path = write_json(tmp_path / "soak.json", result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["crash_torn_reads"] == 0
    assert len(payload["records"]) == 2
    text = result.render()
    assert "all soak invariants held" in text
    assert "hot_swap" in text


def test_soak_result_failure_render_lists_violations():
    result = SoakResult(preset=0.1, latency_tolerance=1.25, seed=0,
                        violations=["k: something broke"])
    assert not result.passed
    assert "INVARIANT VIOLATIONS" in result.render()


def test_store_cli_inspects_and_rolls_back(soak_result, capsys):
    _, root = soak_result
    store = ArtifactStore(root)
    store.put(SOAK_ARTIFACT, store.get(SOAK_ARTIFACT), mark_good=True)
    assert main(["store", "--root", str(root), "--verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and SOAK_ARTIFACT in out
    assert main(["store", "--root", str(root),
                 "--rollback", SOAK_ARTIFACT]) == 0
    out = capsys.readouterr().out
    assert "last_known_good -> v1" in out
    assert store.last_known_good(SOAK_ARTIFACT) == 1


def test_store_cli_rollback_without_older_version_fails_cleanly(tmp_path,
                                                                capsys):
    store = ArtifactStore(tmp_path)
    store.put("pair", b"only-version", mark_good=True)
    assert main(["store", "--root", str(tmp_path),
                 "--rollback", "pair"]) == 1
    assert "rollback failed" in capsys.readouterr().out
    assert store.last_known_good("pair") == 1
