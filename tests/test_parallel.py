"""Parallel campaign layer: determinism, caching, worker fallback,
retries, hang recovery, quarantine and checkpoint resume."""

import multiprocessing
import os
import time
from functools import partial

import numpy as np
import pytest

from repro.core.policy import StaticPolicy
from repro.datagen.cache import cached_dataset, content_key
from repro.datagen.dataset import DVFSDataset
from repro.datagen.protocol import (ProtocolConfig, _kernel_task,
                                    generate_for_suite,
                                    scale_kernel_for_protocol)
from repro.errors import CampaignError, ParallelError
from repro.evaluation.cache import cached_comparison, comparison_cache_key
from repro.evaluation.runner import ComparisonResult, compare_policies
from repro.faults import FlakyTask
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase, memory_phase
from repro import parallel
from repro.parallel import (CampaignCheckpoint, CampaignStats,
                            default_chunksize, derive_seed, parallel_map,
                            resolve_workers)

CFG = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)

#: Environment marker so worker processes (fork or spawn) can recognise
#: they are not the pytest main process.
_MAIN_PID_VAR = "_REPRO_TEST_MAIN_PID"


def _suite():
    return [
        KernelProfile("p.compute",
                      [compute_phase("c", 120_000, warps=16)],
                      iterations=6, jitter=0.05),
        KernelProfile("p.memory",
                      [memory_phase("m", 120_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=6, jitter=0.05),
        KernelProfile("p.balanced", [balanced_phase("b", 120_000)],
                      iterations=6, jitter=0.05),
    ]


def _eval_kernel():
    return KernelProfile("p.eval", [balanced_phase("b", 120_000)],
                         iterations=10, jitter=0.05)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry rounds sleep 10 ms, then 20 ms, ... instead of 50 ms."""
    monkeypatch.setattr(parallel, "BACKOFF_S", 0.01)


def _square(x):
    return x * x


def _crash_in_worker(x):
    if os.environ.get(_MAIN_PID_VAR) != str(os.getpid()):
        os._exit(13)  # hard-kill the pool worker, no exception raised
    return x + 1


# ---------------------------------------------------------------------------
# parallel_map plumbing
# ---------------------------------------------------------------------------

def test_parallel_map_matches_serial_and_keeps_order():
    tasks = list(range(23))
    stats = CampaignStats()
    out = parallel_map(_square, tasks, workers=2, stats=stats)
    assert out == [t * t for t in tasks]
    assert stats.stages[-1].mode == "parallel"
    assert stats.stages[-1].workers == 2
    assert stats.stages[-1].tasks == 23


def test_single_worker_stays_in_process():
    stats = CampaignStats()
    assert parallel_map(_square, [1, 2], workers=1, stats=stats) == [1, 4]
    assert stats.stages[-1].mode == "serial"


def test_worker_crash_falls_back_to_serial():
    os.environ[_MAIN_PID_VAR] = str(os.getpid())
    try:
        stats = CampaignStats()
        out = parallel_map(_crash_in_worker, [1, 2, 3], workers=2,
                           stats=stats)
        assert out == [2, 3, 4]
        assert stats.counters["parallel_fallbacks"] == 1
        assert stats.stages[-1].mode == "fallback"
    finally:
        os.environ.pop(_MAIN_PID_VAR, None)


def test_unpicklable_task_falls_back_to_serial():
    stats = CampaignStats()
    out = parallel_map(lambda x: x - 1, [5, 6], workers=2, stats=stats)
    assert out == [4, 5]
    assert stats.counters["parallel_fallbacks"] == 1


def test_task_errors_propagate():
    def boom(x):
        raise ValueError("task failure")
    with pytest.raises(ValueError):
        parallel_map(boom, [1], workers=1)


# ---------------------------------------------------------------------------
# Resilience: retries, hangs, quarantine, interrupts, checkpoints
# ---------------------------------------------------------------------------

def _plus_one(x):
    return x + 1


def _boom_on_two(x):
    if x == 2:
        raise ValueError("task two always fails")
    return x + 1


def _interrupt_in_worker(x):
    raise KeyboardInterrupt


@pytest.mark.usefixtures("fast_backoff")
def test_crashed_tasks_are_retried_to_completion(tmp_path):
    flaky = FlakyTask(_plus_one, tmp_path, mode="exit", faults_per_task=1)
    stats = CampaignStats()
    # A worker exit breaks the whole pool, so every outstanding task in
    # the round is charged an attempt; give enough retries that the four
    # single-fault tasks always recover without quarantine.
    out = parallel_map(flaky, [1, 2, 3, 4], workers=2, stats=stats,
                       retries=6)
    assert out == [2, 3, 4, 5]
    assert stats.counters["campaign_worker_crashes"] > 0
    assert stats.counters["campaign_retries"] > 0
    # The pool recovered on its own: no serial fallback was needed.
    assert stats.counters["parallel_fallbacks"] == 0
    assert stats.stages[-1].mode == "parallel"


@pytest.mark.usefixtures("fast_backoff")
def test_hung_workers_are_terminated_and_tasks_retried(tmp_path):
    flaky = FlakyTask(_plus_one, tmp_path, mode="hang", hang_s=60.0,
                      faults_per_task=1)
    stats = CampaignStats()
    start = time.monotonic()
    out = parallel_map(flaky, [1, 2], workers=2, stats=stats,
                       timeout_s=1.5)
    assert out == [2, 3]
    # The watchdog must fire at ~timeout_s, not wait out the hang.
    assert time.monotonic() - start < 30.0
    assert stats.counters["campaign_hangs"] > 0


@pytest.mark.usefixtures("fast_backoff")
def test_permanent_task_failure_raises_campaign_error_with_task_id():
    stats = CampaignStats()
    with pytest.raises(CampaignError) as excinfo:
        parallel_map(_boom_on_two, [1, 2, 3], workers=2, stats=stats,
                     retries=1)
    assert excinfo.value.task_id == 1  # 2 is the second task
    assert stats.counters["campaign_quarantined"] == 1
    assert stats.counters["campaign_task_errors"] > 0


def test_keyboard_interrupt_shuts_pool_down_cleanly():
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interrupt_in_worker, [1, 2, 3, 4], workers=2)
    # No orphaned pool workers may survive the interrupt.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("fast_backoff")
def test_raise_mode_fault_is_rescued_in_process(tmp_path):
    flaky = FlakyTask(_plus_one, tmp_path, mode="raise", faults_per_task=1)
    stats = CampaignStats()
    out = parallel_map(flaky, [5, 6], workers=2, stats=stats)
    assert out == [6, 7]
    # FaultInjectionError is a deterministic ReproError: no pool retries,
    # straight to the quarantine rescue (whose second attempt succeeds).
    assert stats.counters["campaign_serial_rescues"] == 2
    assert stats.stages[-1].mode == "fallback"


def test_checkpoint_resume_completes_interrupted_campaign(tmp_path):
    path = tmp_path / "campaign.ckpt"
    tasks = list(range(6))
    # Seed a half-finished campaign the way an interrupted run would.
    partial_ckpt = CampaignCheckpoint(path, key="demo")
    partial_ckpt.save({0: 1, 1: 2, 2: 3})
    stats = CampaignStats()
    out = parallel_map(_plus_one, tasks, workers=2, stats=stats,
                       checkpoint=CampaignCheckpoint(path, key="demo"))
    assert out == [t + 1 for t in tasks]
    assert stats.counters["campaign_tasks_resumed"] == 3
    # A completed campaign clears its checkpoint.
    assert not path.exists()
    # And the resumed result matches an uninterrupted run exactly.
    assert out == parallel_map(_plus_one, tasks, workers=1)


def test_checkpoint_key_mismatch_and_corruption_are_ignored(tmp_path):
    path = tmp_path / "campaign.ckpt"
    CampaignCheckpoint(path, key="other-campaign").save({0: 999})
    assert CampaignCheckpoint(path, key="mine").load() == {}
    path.write_bytes(b"\x00garbage not a pickle")
    assert CampaignCheckpoint(path, key="mine").load() == {}
    stats = CampaignStats()
    out = parallel_map(_plus_one, [1, 2], workers=1, stats=stats,
                       checkpoint=CampaignCheckpoint(path, key="mine"))
    assert out == [2, 3]
    assert stats.counters["campaign_tasks_resumed"] == 0


def test_checkpoint_write_failure_is_counted_not_fatal(tmp_path,
                                                       monkeypatch):
    # A full disk (or unpicklable payload) mid-campaign must not kill
    # the run — but it must show up in --stats instead of vanishing
    # into a silent except, so operators learn resume is broken.
    def broken_save(self, results):
        raise OSError("disk full")

    monkeypatch.setattr(CampaignCheckpoint, "save", broken_save)
    for workers in (1, 2):
        stats = CampaignStats()
        out = parallel_map(_plus_one, list(range(5)), workers=workers,
                           stats=stats,
                           checkpoint=CampaignCheckpoint(
                               tmp_path / f"w{workers}.ckpt", key="demo"))
        assert out == [1, 2, 3, 4, 5]
        assert stats.counters["campaign_checkpoint_write_failures"] >= 1
        assert stats.counters["campaign_suppressed_errors"] >= 1
        assert stats.counters["campaign_checkpoint_saves"] == 0


def test_checkpoint_clear_failure_is_counted_not_fatal(tmp_path,
                                                      monkeypatch):
    def broken_clear(self):
        raise OSError("read-only filesystem")

    monkeypatch.setattr(CampaignCheckpoint, "clear", broken_clear)
    stats = CampaignStats()
    out = parallel_map(_plus_one, [1, 2], workers=1, stats=stats,
                       checkpoint=CampaignCheckpoint(
                           tmp_path / "c.ckpt", key="demo"))
    assert out == [2, 3]
    assert stats.counters["campaign_suppressed_errors"] == 1


@pytest.mark.usefixtures("fast_backoff")
def test_faulted_datagen_campaign_is_bit_identical_to_fault_free(
        tmp_path, small_arch):
    config = CFG
    tasks = [(scale_kernel_for_protocol(k, small_arch, config), small_arch,
              config) for k in _suite()]
    clean = parallel_map(_kernel_task, tasks, workers=1)
    flaky = FlakyTask(_kernel_task, tmp_path, mode="exit", faults_per_task=1)
    stats = CampaignStats()
    retried = parallel_map(flaky, tasks, workers=2, stats=stats)
    assert stats.counters["campaign_worker_crashes"] > 0
    clean_ds = DVFSDataset.from_breakpoints(
        [bp for chunk, _ in clean for bp in chunk])
    retried_ds = DVFSDataset.from_breakpoints(
        [bp for chunk, _ in retried for bp in chunk])
    _assert_datasets_identical(clean_ds, retried_ds)


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) >= 1
    assert resolve_workers(-1) >= 1


def test_default_chunksize():
    assert default_chunksize(100, 4) == 7
    assert default_chunksize(3, 8) == 1
    with pytest.raises(ParallelError):
        default_chunksize(0, 4)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, "a") == derive_seed(3, "a")
    assert derive_seed(3, "a") != derive_seed(3, "b")
    assert derive_seed(3, "a") != derive_seed(4, "a")
    assert 0 <= derive_seed(1, 2, "x") < 2 ** 63


def test_stats_render_mentions_stages_and_counters():
    stats = CampaignStats()
    with stats.stage("demo", tasks=3, workers=2, mode="parallel"):
        pass
    stats.count("dataset_cache_hit")
    text = stats.render()
    assert "demo" in text and "dataset_cache_hit" in text
    assert stats.counters == {"dataset_cache_hit": 1}


# ---------------------------------------------------------------------------
# Data-generation determinism
# ---------------------------------------------------------------------------

def _assert_datasets_identical(a: DVFSDataset, b: DVFSDataset) -> None:
    assert a.kernel_names == b.kernel_names
    for name in ("counters", "sample_breakpoint", "sample_level",
                 "sample_loss", "sample_instructions", "record_group"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def test_parallel_dataset_bit_identical_to_serial(small_arch):
    serial = DVFSDataset.from_breakpoints(
        generate_for_suite(_suite(), small_arch, config=CFG, workers=1))
    stats = CampaignStats()
    parallel = DVFSDataset.from_breakpoints(
        generate_for_suite(_suite(), small_arch, config=CFG, workers=2,
                           stats=stats))
    _assert_datasets_identical(serial, parallel)
    modes = {s.name: s.mode for s in stats.stages}
    assert modes["datagen"] in ("parallel", "fallback")


# ---------------------------------------------------------------------------
# Dataset cache: hits, misses, invalidation
# ---------------------------------------------------------------------------

def test_warm_cache_skips_simulation(tmp_path, small_arch):
    cold = CampaignStats()
    first = cached_dataset(tmp_path, _suite(), small_arch, CFG, workers=2,
                           stats=cold)
    assert cold.counters["dataset_cache_miss"] == 1
    assert cold.counters["dataset_cache_hit"] == 0
    assert any(s.name == "datagen" for s in cold.stages)

    warm = CampaignStats()
    second = cached_dataset(tmp_path, _suite(), small_arch, CFG, workers=2,
                            stats=warm)
    assert warm.counters["dataset_cache_hit"] == 1
    assert warm.counters["dataset_cache_miss"] == 0
    # The warm rerun must skip simulation entirely: no datagen stage ran.
    assert not any(s.name == "datagen" for s in warm.stages)
    _assert_datasets_identical(first, second)


def test_cache_invalidated_on_config_change(tmp_path, small_arch):
    stats = CampaignStats()
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats)
    other = ProtocolConfig(max_breakpoints_per_kernel=2, seed=8)
    cached_dataset(tmp_path, _suite(), small_arch, other, stats=stats)
    assert stats.counters["dataset_cache_miss"] == 2
    assert len(list(tmp_path.glob("dvfs-*.npz"))) == 2


def test_no_cache_regenerates_but_refreshes_file(tmp_path, small_arch):
    stats = CampaignStats()
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats)
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats,
                   use_cache=False)
    assert stats.counters["dataset_cache_miss"] == 2
    assert len(list(tmp_path.glob("dvfs-*.npz"))) == 1


def _flip_bytes(path):
    """Flip bits in the middle of the payload (a torn write / bit-rot)."""
    blob = bytearray(path.read_bytes())
    for offset in range(len(blob) // 2, len(blob) // 2 + 64):
        blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


def _drop_record_group(path):
    """Rewrite the archive with every array but ``record_group``."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files
                  if name != "record_group"}
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


@pytest.mark.parametrize("damage", [_flip_bytes, _drop_record_group],
                         ids=["flipped-bytes", "no-record-group"])
def test_corrupt_dataset_cache_is_regenerated(tmp_path, small_arch, damage):
    stats = CampaignStats()
    first = cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats)
    [path] = tmp_path.glob("dvfs-*.npz")
    damage(path)
    recovered = cached_dataset(tmp_path, _suite(), small_arch, CFG,
                               stats=stats)
    assert stats.counters["dataset_cache_corrupt"] == 1
    assert stats.counters["dataset_cache_miss"] == 2
    _assert_datasets_identical(first, recovered)
    # The regenerated artefact replaced the corrupt file: next load hits.
    rewarmed = CampaignStats()
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=rewarmed)
    assert rewarmed.counters["dataset_cache_hit"] == 1


def test_truncated_dataset_cache_is_regenerated(tmp_path, small_arch):
    stats = CampaignStats()
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats)
    [path] = tmp_path.glob("dvfs-*.npz")
    path.write_bytes(path.read_bytes()[:20])
    cached_dataset(tmp_path, _suite(), small_arch, CFG, stats=stats)
    assert stats.counters["dataset_cache_corrupt"] == 1


def test_content_key_is_order_insensitive():
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert content_key({"a": 1}) != content_key({"a": 2})


def test_key_is_stable():
    payload = {"kind": "layerwise", "seed": 3, "config": {"epochs": 5}}
    assert content_key(payload) == content_key(dict(payload))


def test_key_changes_with_content():
    payload = {"kind": "layerwise", "seed": 3}
    assert content_key(payload) != content_key(
        {**payload, "seed": 4})
    assert content_key(payload) != content_key(
        {**payload, "kind": "pruning"})


# ---------------------------------------------------------------------------
# Evaluation grid: parallel parity and caching
# ---------------------------------------------------------------------------

def _factories():
    return {"low": partial(StaticPolicy, 1), "high": partial(StaticPolicy, 4)}


def test_parallel_comparison_matches_serial(small_arch):
    serial = compare_policies(_factories(), [_eval_kernel()], small_arch,
                              0.1, seed=3)
    stats = CampaignStats()
    parallel = compare_policies(_factories(), [_eval_kernel()], small_arch,
                                0.1, seed=3, workers=2, stats=stats)
    assert serial.to_payload() == parallel.to_payload()


def test_comparison_payload_roundtrip(small_arch):
    result = compare_policies(_factories(), [_eval_kernel()], small_arch,
                              0.1, seed=3)
    clone = ComparisonResult.from_payload(result.to_payload())
    assert clone.to_payload() == result.to_payload()
    assert clone.policies() == result.policies()


def test_comparison_cache_hit_and_token_invalidation(tmp_path, small_arch):
    cold = CampaignStats()
    first = cached_comparison(tmp_path, _factories(), [_eval_kernel()],
                              small_arch, 0.1, seed=3, stats=cold)
    assert cold.counters["comparison_cache_miss"] == 1

    warm = CampaignStats()
    second = cached_comparison(tmp_path, _factories(), [_eval_kernel()],
                               small_arch, 0.1, seed=3, stats=warm)
    assert warm.counters["comparison_cache_hit"] == 1
    assert warm.counters["comparison_cache_miss"] == 0
    assert first.to_payload() == second.to_payload()

    # A different model token must land on a fresh key.
    retoken = CampaignStats()
    cached_comparison(tmp_path, _factories(), [_eval_kernel()], small_arch,
                      0.1, seed=3, stats=retoken, cache_token="other-models")
    assert retoken.counters["comparison_cache_miss"] == 1


def test_corrupt_comparison_cache_is_rerun(tmp_path, small_arch):
    stats = CampaignStats()
    first = cached_comparison(tmp_path, _factories(), [_eval_kernel()],
                              small_arch, 0.1, seed=3, stats=stats)
    [path] = tmp_path.glob("grid-*.json")
    path.write_text(path.read_text()[:25])  # truncated JSON
    recovered = cached_comparison(tmp_path, _factories(), [_eval_kernel()],
                                  small_arch, 0.1, seed=3, stats=stats)
    assert stats.counters["comparison_cache_corrupt"] == 1
    assert stats.counters["comparison_cache_miss"] == 2
    assert first.to_payload() == recovered.to_payload()


def test_comparison_key_depends_on_grid_parameters(small_arch):
    kernels = [_eval_kernel()]
    base = comparison_cache_key(["a"], kernels, small_arch, 0.1, seed=3)
    assert base == comparison_cache_key(["a"], kernels, small_arch, 0.1,
                                        seed=3)
    assert base != comparison_cache_key(["b"], kernels, small_arch, 0.1,
                                        seed=3)
    assert base != comparison_cache_key(["a"], kernels, small_arch, 0.2,
                                        seed=3)
    assert base != comparison_cache_key(["a"], kernels, small_arch, 0.1,
                                        seed=4)
