"""On-disk sweep cache for the layer-wise and pruning campaigns."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.nn.compress import (ArchitectureSpec, SplitData, layer_wise_sweep,
                               pair_fingerprint, pruning_sweep,
                               split_fingerprint, train_pair)
from repro.nn.trainer import TrainConfig
from repro.parallel import CampaignCheckpoint, CampaignStats, content_key


@pytest.fixture(scope="module")
def splits():
    rng = np.random.default_rng(0)
    xd = rng.normal(size=(80, 5))
    yd = (xd.sum(axis=1) > 0).astype(np.int64)
    xr = rng.normal(size=(80, 5))
    yr = xr @ rng.normal(size=5)
    return (SplitData(xd[:60], yd[:60], xd[60:], yd[60:]),
            SplitData(xr[:60], yr[:60], xr[60:], yr[60:]))


SPECS = [ArchitectureSpec((8,), (6,)), ArchitectureSpec((6,), (4,))]
CFG = TrainConfig(epochs=6, patience=3, seed=1)


def test_key_is_stable():
    payload = {"kind": "layerwise", "seed": 3, "config": {"epochs": 5}}
    assert content_key(payload) == content_key(dict(payload))


def test_key_changes_with_content():
    payload = {"kind": "layerwise", "seed": 3}
    assert content_key(payload) != content_key(
        {**payload, "seed": 4})
    assert content_key(payload) != content_key(
        {**payload, "kind": "pruning"})


def test_split_fingerprint_tracks_data(splits):
    decision_data, _ = splits
    assert (split_fingerprint(decision_data)
            == split_fingerprint(decision_data))
    perturbed = SplitData(decision_data.x_train + 1e-9,
                          decision_data.y_train, decision_data.x_test,
                          decision_data.y_test)
    assert split_fingerprint(decision_data) != split_fingerprint(perturbed)


def test_pair_fingerprint_tracks_weights(splits):
    decision_data, calibrator_data = splits
    pair = train_pair(SPECS[0], decision_data, calibrator_data, 2, CFG)
    key = pair_fingerprint(pair)
    assert key == pair_fingerprint(pair)
    pair.decision.layers[0].weights[0, 0] += 1.0
    assert pair_fingerprint(pair) != key


def test_layerwise_miss_then_hit(tmp_path, splits):
    decision_data, calibrator_data = splits
    stats = CampaignStats()
    first = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                             stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_miss"] == len(SPECS)
    assert stats.counters["sweep_cache_hit"] == 0
    assert stats.counters["train_models"] == 2 * len(SPECS)
    files = sorted(tmp_path.glob("sweep-*.json"))
    assert len(files) == len(SPECS)
    mtimes = [f.stat().st_mtime_ns for f in files]

    stats = CampaignStats()
    second = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                              stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_hit"] == len(SPECS)
    assert stats.counters["sweep_cache_miss"] == 0
    assert stats.counters["train_models"] == 0
    assert [f.stat().st_mtime_ns for f in files] == mtimes  # untouched
    assert second == first


def test_layerwise_cache_matches_uncached(tmp_path, splits):
    decision_data, calibrator_data = splits
    plain = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG)
    cached = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                              cache_dir=tmp_path)
    reloaded = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS,
                                CFG, cache_dir=tmp_path)
    assert cached == plain
    assert reloaded == plain


def test_corrupt_cache_is_counted_miss(tmp_path, splits):
    decision_data, calibrator_data = splits
    first = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                             cache_dir=tmp_path)
    for path in tmp_path.glob("sweep-*.json"):
        path.write_text("{ not json")
    stats = CampaignStats()
    second = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                              stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_corrupt"] == len(SPECS)
    assert stats.counters["sweep_cache_miss"] == len(SPECS)
    assert second == first  # retrained, not crashed
    # Valid payloads were rewritten in place.
    for path in tmp_path.glob("sweep-*.json"):
        json.loads(path.read_text())


def test_use_cache_false_refreshes(tmp_path, splits):
    decision_data, calibrator_data = splits
    layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                     cache_dir=tmp_path)
    stats = CampaignStats()
    layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                     stats=stats, cache_dir=tmp_path, use_cache=False)
    assert stats.counters["sweep_cache_hit"] == 0
    assert stats.counters["sweep_cache_miss"] == len(SPECS)


def test_cache_creates_directory(tmp_path, splits):
    decision_data, calibrator_data = splits
    nested = tmp_path / "a" / "b"
    layer_wise_sweep(decision_data, calibrator_data, 2, SPECS[:1], CFG,
                     cache_dir=nested)
    assert any(nested.glob("sweep-*.json"))


def test_key_tracks_data_and_seed(tmp_path, splits):
    """A different seed must train fresh points, not reuse cached ones."""
    decision_data, calibrator_data = splits
    layer_wise_sweep(decision_data, calibrator_data, 2, SPECS[:1], CFG,
                     cache_dir=tmp_path)
    stats = CampaignStats()
    layer_wise_sweep(decision_data, calibrator_data, 2, SPECS[:1], CFG,
                     seed=99, stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_miss"] == 1


def test_pruning_sweep_cache(tmp_path, splits):
    decision_data, calibrator_data = splits
    pair = train_pair(SPECS[0], decision_data, calibrator_data, 2, CFG)
    grid = [(0.4, 0.7), (0.6, 0.9)]
    finetune = TrainConfig(epochs=4, patience=2, learning_rate=5e-4)
    stats = CampaignStats()
    first = pruning_sweep(pair, decision_data, calibrator_data, grid,
                          finetune, stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_miss"] == len(grid)
    stats = CampaignStats()
    second = pruning_sweep(pair, decision_data, calibrator_data, grid,
                           finetune, stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_hit"] == len(grid)
    assert second == first
    # A retrained base pair must invalidate the cached pruning curve.
    pair.decision.layers[0].weights += 0.01
    stats = CampaignStats()
    pruning_sweep(pair, decision_data, calibrator_data, grid, finetune,
                  stats=stats, cache_dir=tmp_path)
    assert stats.counters["sweep_cache_miss"] == len(grid)


def _data_key(decision_data, calibrator_data):
    return (f"{split_fingerprint(decision_data)}-"
            f"{split_fingerprint(calibrator_data)}")


def test_layerwise_checkpoint_resumes(tmp_path, splits):
    decision_data, calibrator_data = splits
    clean = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG)
    key = content_key({
        "kind": "layerwise-campaign",
        "data": _data_key(decision_data, calibrator_data), "seed": 0,
        "config": asdict(CFG), "specs": [spec.label for spec in SPECS]})
    ckpt = tmp_path / f"sweep-layerwise-{key}.ckpt"
    CampaignCheckpoint(ckpt, key=key).save({0: (asdict(clean[0]), {})})
    stats = CampaignStats()
    resumed = layer_wise_sweep(decision_data, calibrator_data, 2, SPECS, CFG,
                               stats=stats, cache_dir=tmp_path,
                               checkpoint=True)
    assert resumed == clean
    assert stats.counters["campaign_tasks_resumed"] == 1
    assert stats.counters["sweep_cache_miss"] == len(SPECS) - 1
    assert not ckpt.exists()  # a completed campaign clears it


def test_pruning_checkpoint_resumes(tmp_path, splits):
    decision_data, calibrator_data = splits
    pair = train_pair(SPECS[0], decision_data, calibrator_data, 2, CFG)
    grid = [(0.2, 0.7), (0.6, 0.9)]
    clean = pruning_sweep(pair, decision_data, calibrator_data, grid, CFG)
    key = content_key({
        "kind": "pruning-campaign",
        "data": _data_key(decision_data, calibrator_data),
        "pair": pair_fingerprint(pair), "config": asdict(CFG),
        "grid": [[x1, x2] for x1, x2 in grid]})
    ckpt = tmp_path / f"sweep-pruning-{key}.ckpt"
    CampaignCheckpoint(ckpt, key=key).save({0: (asdict(clean[0]), {})})
    stats = CampaignStats()
    resumed = pruning_sweep(pair, decision_data, calibrator_data, grid, CFG,
                            stats=stats, cache_dir=tmp_path,
                            checkpoint=True)
    assert resumed == clean
    assert stats.counters["campaign_tasks_resumed"] == 1
    assert stats.counters["sweep_cache_miss"] == len(grid) - 1
    assert not ckpt.exists()  # a completed campaign clears it
