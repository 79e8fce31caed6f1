"""Tests of the end-to-end benchmark at a reduced size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_e2e
import compare
import layers
import workloads

SPEC = json.loads(bench_e2e.BENCHMARK.read_text())


def _run(tmp_path: Path, *extra: str) -> tuple[list[dict], list[dict]]:
    """Run the CLI at the small size; returns (result lines, records)."""
    out = tmp_path / "records.json"
    proc = subprocess.run(
        [sys.executable, str(bench_e2e.HERE / "bench_e2e.py"), "--size",
         "small", "--seconds", "0.01", "--out", str(out), *extra],
        cwd=bench_e2e.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return results, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    results, records = _run(tmp, "--trace", "--chrome",
                            str(tmp / "chrome.json"))
    return results, records, json.loads((tmp / "chrome.json").read_text())


def test_metric_names_match_benchmark_json(untraced, traced):
    end_to_end = [entry["name"] for entry in SPEC["end_to_end"]]
    per_layer = [entry["name"] for entry in SPEC["per_layer"]]
    assert len(untraced[0]) == len(traced[0]) == len(layers.WORKLOADS)
    for result in untraced[0]:
        assert list(result["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for result in traced[0]:
        assert list(result["metrics"]) == per_layer
    for result in untraced[0] + traced[0]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0


def test_runs_give_identical_fingerprints(untraced, traced):
    """Two runs in separate processes, traced or not, and every
    repetition inside each, give one fingerprint per workload."""
    for plain, with_trace in zip(untraced[1], traced[1]):
        prints = {rep["fingerprint"] for rep in plain["reps"]}
        prints |= {rep["fingerprint"] for rep in with_trace["reps"]}
        assert prints == {plain["fingerprint"]}, plain["workload"]
        assert plain["attempted"] >= bench_e2e.MIN_REPS
        assert all(s is not None for s in plain["setup_samples"])


def test_traced_run_covers_every_expected_layer(traced):
    _, records, chrome = traced
    for record in records:
        for name in (layer.name for layer in layers.CATALOGUE
                     if record["workload"] in layer.expect):
            assert record["layers"][name]["calls"] > 0, name
        assert record["top_self"]
    assert any(event.get("ph") == "X" for event in chrome["traceEvents"])


def test_trace_restores_every_wrapped_binding():
    inputs = workloads.prepare("offline-build", 3, workloads.SMALL)
    with layers.Tracer() as tracer:
        patched = tracer.bindings()
        workloads.execute(inputs, call=tracer.root)
    names = {(getattr(owner, "__name__", ""), attr)
             for owner, attr, _ in patched}
    for binding in [("repro.gpu.simulator", "run_epoch_batch"),
                    ("repro.gpu.fused", "run_epoch_batch"),
                    ("repro.datagen.protocol", "run_epoch_batch"),
                    ("repro.core.pipeline", "train_pair"),
                    ("repro.core.pipeline", "prune_and_finetune"),
                    ("repro.core.pipeline", "generate_for_suite"),
                    ("repro.gpu.quantum", "solve_throughput_batch")]:
        assert binding in names
    assert tracer.stats["nn.compress.train_pair"].calls == 2
    assert not tracer.bindings()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_missing_layer_is_reported():
    layer = layers.Layer("unused", "repro.gpu.quantum", ("run_epoch_batch",),
                         expect=("fig4-grid",))
    tracer = layers.Tracer(layers=(layer,))
    assert tracer.missing("fig4-grid") == ["unused"]
    assert tracer.missing("serve-replay") == []


def test_flipped_fixture_byte_fails_setup(tmp_path):
    fixture = tmp_path / "ssmdvfs-pruned"
    shutil.copytree(workloads.FIXTURE_DIR, fixture)
    target = fixture / "decision.npz"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    with pytest.raises(workloads.CheckFailed):
        workloads.prepare("fig4-grid", 3, workloads.SMALL, fixture_dir=fixture)


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9, 10], [10.2, 10.1, 10.3, 10.2],
                           "higher", 0.10)[0] == "agree"
    assert compare.verdict([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8],
                           "higher", 0.10)[0] == "regressed"
    assert compare.verdict([10, 13, 7, 10], [10, 12, 8, 10],
                           "lower", 0.10)[0] == "unresolved"
    assert compare.verdict([10, 13, 7, 10], [5, 6, 4, 5],
                           "lower", 0.10)[0] == "agree"


def test_compare_same_results_agree(untraced):
    lines, regressed = compare.compare(untraced[1], untraced[1], SPEC)
    assert not regressed
    assert not any("CHANGED" in line for line in lines)


def test_outside_a_checkout_exits_without_result(tmp_path):
    shutil.copy(bench_e2e.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench_e2e.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload",
         "fig4-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
