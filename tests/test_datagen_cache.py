"""On-disk dataset cache."""

import numpy as np
import pytest

from repro.datagen import protocol
from repro.datagen.cache import cached_dataset, dataset_cache_key
from repro.datagen.protocol import ProtocolConfig
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase
from repro.parallel import CampaignCheckpoint, CampaignStats


def _kernels(instructions=120_000):
    return [KernelProfile("cache.k",
                          [balanced_phase("b", instructions)],
                          iterations=30, jitter=0.05)]


CFG = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)


def test_key_is_stable(small_arch):
    a = dataset_cache_key(_kernels(), small_arch, CFG)
    b = dataset_cache_key(_kernels(), small_arch, CFG)
    assert a == b
    # Pinned value: datasets cached by earlier versions stay valid.
    assert a == "ee3b4f5b2e965273"


def test_key_changes_with_seed(small_arch):
    other = ProtocolConfig(max_breakpoints_per_kernel=2, seed=8)
    assert (dataset_cache_key(_kernels(), small_arch, CFG)
            != dataset_cache_key(_kernels(), small_arch, other))


def test_key_changes_with_kernel_content(small_arch):
    assert (dataset_cache_key(_kernels(120_000), small_arch, CFG)
            != dataset_cache_key(_kernels(160_000), small_arch, CFG))


def test_key_changes_with_breakpoints(small_arch):
    other = ProtocolConfig(max_breakpoints_per_kernel=3, seed=7)
    assert (dataset_cache_key(_kernels(), small_arch, CFG)
            != dataset_cache_key(_kernels(), small_arch, other))


def test_cache_miss_then_hit(tmp_path, small_arch):
    first = cached_dataset(tmp_path, _kernels(), small_arch, CFG)
    files = list(tmp_path.glob("dvfs-*.npz"))
    assert len(files) == 1
    mtime = files[0].stat().st_mtime_ns
    second = cached_dataset(tmp_path, _kernels(), small_arch, CFG)
    assert files[0].stat().st_mtime_ns == mtime  # not regenerated
    assert second.num_samples == first.num_samples
    assert second.num_groups == first.num_groups


def test_cache_creates_directory(tmp_path, small_arch):
    nested = tmp_path / "a" / "b"
    cached_dataset(nested, _kernels(), small_arch, CFG)
    assert any(nested.glob("dvfs-*.npz"))


def test_generation_checkpoint_resumes(tmp_path, small_arch):
    kernels = _kernels() + [KernelProfile(
        "cache.c", [compute_phase("c", 120_000)], iterations=30,
        jitter=0.05)]
    clean = cached_dataset(tmp_path / "clean", kernels, small_arch, CFG)
    key = dataset_cache_key(kernels, small_arch, CFG)
    scaled = protocol.scale_kernel_for_protocol(kernels[0], small_arch, CFG)
    first = protocol._kernel_task((scaled, small_arch, CFG))
    ckpt = tmp_path / f"dvfs-{key}.ckpt"
    CampaignCheckpoint(ckpt, key=key).save({0: first})
    stats = CampaignStats()
    resumed = cached_dataset(tmp_path, kernels, small_arch, CFG,
                             stats=stats, checkpoint=True)
    assert stats.counters["campaign_tasks_resumed"] == 1
    for name in ("counters", "sample_breakpoint", "sample_level",
                 "sample_loss", "sample_instructions", "record_group"):
        assert np.array_equal(getattr(resumed, name), getattr(clean, name))
    assert (tmp_path / f"dvfs-{key}.npz").exists()
    assert not ckpt.exists()  # a completed campaign clears it
