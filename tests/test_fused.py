"""Fused campaign engine: bit-identity, masking, transport, resume.

The fused engine's contract is *byte*-identity with the serial path —
every test here compares pickled record streams or exported JSON, not
approximate metrics.  Coverage spans the engine itself (lockstep
records, early-finish masking, mid-campaign pickling), the batched
policy surfaces (SSMDVFS, heuristic baselines, faulty/guarded
wrappers), the shared-memory transport, and the three campaign layers
that fuse (evaluation grids, datagen, fleet phase 1).
"""

import functools
import json
import pickle

import numpy as np
import pytest

from repro.baselines.flemma import FLEMMAPolicy
from repro.baselines.pcstall import PCSTALLPolicy
from repro.cli import PAPER_FEATURES
from repro.core.combined import SSMDVFSModel
from repro.core.controller import SSMDVFSController
from repro.core.policy import StaticPolicy
from repro.datagen.dataset import DVFSDataset
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.datagen.protocol import ProtocolConfig, generate_chunks_for_suite
from repro.errors import SimulationError
from repro.evaluation.cache import cached_comparison
from repro.evaluation.runner import compare_policies
from repro.faults import build_faulty_policy, config_for_mode
from repro.fleet import ClusterScheduler, TraceConfig, build_trace
from repro.gpu.arch import small_test_config
from repro.gpu.fused import (FusedCampaignEngine, SharedContextCache,
                             SharedObjectRef, dump_shared, fuse_groups,
                             load_shared, release_shared, run_fused)
from repro.gpu.counters import COUNTER_NAMES, CounterSet
from repro.gpu.interval_model import SolutionCache
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.nn.mlp import MLP
from repro.parallel import CampaignStats


def _kernels():
    return [
        KernelProfile("f.compute", [compute_phase("c", 60_000, warps=16)],
                      iterations=2, jitter=0.05),
        KernelProfile("f.memory",
                      [memory_phase("m", 60_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=2, jitter=0.05),
    ]


def _short_kernel():
    return KernelProfile("f.short", [balanced_phase("b", 30_000)],
                         iterations=1, jitter=0.04)


def _synth_model(num_levels, hidden=16, seed=5):
    rng = np.random.default_rng(seed)
    extractor = FeatureExtractor(PAPER_FEATURES, issue_width=4.0)
    width = extractor.width + 1
    scaler = FeatureScaler().fit(rng.uniform(0.0, 50.0, size=(256, width)))
    return SSMDVFSModel(
        decision_model=MLP([width, hidden, num_levels], rng=rng),
        calibrator_model=MLP([width, hidden, 1], rng=rng),
        feature_names=PAPER_FEATURES, issue_width=4.0,
        num_levels=num_levels,
        decision_scaler=scaler, calibrator_scaler=scaler,
    )


@pytest.fixture(scope="module")
def arch():
    return small_test_config(num_clusters=2)


@pytest.fixture(scope="module")
def model(arch):
    return _synth_model(len(arch.vf_table))


def _policies(arch, model):
    """One policy of each decision style (batched, heuristic, static)."""
    return {
        "static": lambda: StaticPolicy(arch.vf_table.default_level),
        "pcstall": lambda: PCSTALLPolicy(0.10),
        "flemma": lambda: FLEMMAPolicy(0.10),
        "ssmdvfs": lambda: SSMDVFSController(model, 0.10),
    }


def _serial_result(arch, kernel, policy, seed):
    simulator = GPUSimulator(arch, kernel, seed=seed)
    return simulator.run(policy, keep_records=True)


def _result_bytes(result):
    return pickle.dumps((result.policy_name, result.kernel_name,
                         result.epochs, result.account.energy_j,
                         result.account.time_s, result.records))


# ---------------------------------------------------------------------------
# Engine bit-identity
# ---------------------------------------------------------------------------

def test_fused_records_bit_identical_per_policy(arch, model):
    """Every policy style replays byte-identically through the engine."""
    kernels = _kernels()
    seeds = (1, 9)
    for name, factory in _policies(arch, model).items():
        entries = []
        expected = []
        for kernel in kernels:
            for seed in seeds:
                expected.append(_result_bytes(
                    _serial_result(arch, kernel, factory(), seed)))
                entries.append((len(entries),
                                GPUSimulator(arch, kernel, seed=seed),
                                factory()))
        results = run_fused(entries, keep_records=True)
        fused = [_result_bytes(r) for r in results]
        assert fused == expected, f"policy {name!r} diverged when fused"


def test_fused_mixed_policy_group_bit_identical(arch, model):
    """A heterogeneous group (all styles co-simulated) stays identical."""
    kernel = _kernels()[0]
    factories = list(_policies(arch, model).values())
    expected = [_result_bytes(_serial_result(arch, kernel, f(), 3))
                for f in factories]
    entries = [(i, GPUSimulator(arch, kernel, seed=3), f())
               for i, f in enumerate(factories)]
    counters: dict = {}
    results = run_fused(entries, stats_counters=counters)
    assert [_result_bytes(r) for r in results] == expected
    assert counters["fused_tasks"] == len(factories)
    assert counters["fused_quanta"] > 0


def test_fused_faulty_and_guarded_bit_identical(arch, model):
    """Faulty/guarded wrappers fall back to solo decisions, identically."""
    kernel = _kernels()[1]
    config = config_for_mode("dropout", 0.3, seed=2)
    factory = functools.partial(build_faulty_policy,
                                functools.partial(SSMDVFSController,
                                                  model, 0.10),
                                config)
    expected = _result_bytes(_serial_result(arch, kernel, factory(), 4))
    counters: dict = {}
    results = run_fused([(0, GPUSimulator(arch, kernel, seed=4), factory()),
                         (1, GPUSimulator(arch, kernel, seed=5), factory())],
                        stats_counters=counters)
    assert _result_bytes(results[0]) == expected
    # Wrapped policies have no fused hooks: every decision is solo.
    assert counters["fused_solo_decisions"] > 0
    assert counters.get("fused_inference_groups", 0) == 0


def test_fused_shared_solution_and_noise_caches_identical(arch, model):
    """Cross-task solve/noise sharing changes wall-clock, never bits."""
    kernel = _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    expected = [_result_bytes(_serial_result(arch, kernel, factory(), 7))
                for _ in range(3)]
    shared_cache = SolutionCache()
    noise_cache: dict = {}
    entries = [(i, GPUSimulator(arch, kernel, seed=7,
                                solution_cache=shared_cache,
                                noise_cache=noise_cache), factory())
               for i in range(3)]
    results = run_fused(entries)
    assert [_result_bytes(r) for r in results] == expected
    assert shared_cache.hits > 0
    # 3 same-seed tasks x 2 clusters share 2 noise objects, not 6.
    assert len(noise_cache) == arch.num_clusters


def test_noise_cache_keyed_by_seed(arch):
    """Different seeds never share noise tracks."""
    kernel = _kernels()[0]
    cache: dict = {}
    GPUSimulator(arch, kernel, seed=1, noise_cache=cache)
    GPUSimulator(arch, kernel, seed=2, noise_cache=cache)
    assert len(cache) == 2 * arch.num_clusters


# ---------------------------------------------------------------------------
# Early-finish masking and engine validation
# ---------------------------------------------------------------------------

def test_early_finish_masking(arch, model):
    """Short tasks retire early and stay byte-identical; long ones run on."""
    short, long = _short_kernel(), _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    expected_short = _result_bytes(_serial_result(arch, short, factory(), 2))
    expected_long = _result_bytes(_serial_result(arch, long, factory(), 2))
    counters: dict = {}
    results = run_fused([(0, GPUSimulator(arch, short, seed=2), factory()),
                         (1, GPUSimulator(arch, long, seed=2), factory())],
                        stats_counters=counters)
    assert _result_bytes(results[0]) == expected_short
    assert _result_bytes(results[1]) == expected_long
    # The short task was masked out of late quanta: the engine ran
    # fewer task-epochs than quanta x tasks.
    assert counters["fused_task_epochs"] < counters["fused_quanta"] * 2


def test_engine_rejects_mismatched_tasks(arch):
    kernel = _kernels()[0]
    engine = FusedCampaignEngine()
    engine.add_task(0, GPUSimulator(arch, kernel, seed=1), StaticPolicy(0))
    with pytest.raises(SimulationError):
        engine.add_task(1, GPUSimulator(arch, kernel, seed=1,
                                        epoch_s=20e-6), StaticPolicy(0))
    other_arch = small_test_config(num_clusters=4)
    with pytest.raises(SimulationError):
        engine.add_task(2, GPUSimulator(other_arch, kernel, seed=1),
                        StaticPolicy(0))


def test_fuse_groups_shapes():
    assert fuse_groups([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert fuse_groups([], 4) == []
    with pytest.raises(SimulationError):
        fuse_groups([1], 0)


# ---------------------------------------------------------------------------
# Mid-campaign pickling (the checkpoint primitive)
# ---------------------------------------------------------------------------

def test_engine_pickles_mid_campaign_and_resumes_identically(arch, model):
    kernel = _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    reference = _result_bytes(_serial_result(arch, kernel, factory(), 6))

    engine = FusedCampaignEngine()
    engine.add_task(0, GPUSimulator(arch, kernel, seed=6), factory(),
                    keep_records=True)
    engine._started = True
    engine.tasks[0].policy.reset(engine.tasks[0].simulator)
    for _ in range(3):  # pause mid-campaign
        engine.step_quantum()
    resumed = pickle.loads(pickle.dumps(engine))
    while any(not t.done for t in resumed.tasks):
        resumed.step_quantum()
    assert _result_bytes(resumed.tasks[0].result) == reference


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------

def test_shared_memory_roundtrip_and_readonly(model):
    ref, block = dump_shared(model)
    try:
        if ref.shm_name is not None:
            assert ref.shared_bytes > 0
        loaded, attached = load_shared(ref)
        weights = loaded.decision_maker.model.layers[0].weights
        original = model.decision_maker.model.layers[0].weights
        np.testing.assert_array_equal(weights, original)
        if ref.shm_name is not None:
            assert not weights.flags.writeable
        # Read-only weights must still run inference (scratch buffers
        # are reallocated per process, never shipped as shared views).
        rng = np.random.default_rng(0)
        counter_sets = [CounterSet.from_vector(
            rng.uniform(1.0, 1e4, size=len(COUNTER_NAMES)))
            for _ in range(4)]
        levels = loaded.decision_maker.predict_levels(counter_sets, 0.1)
        assert levels == model.decision_maker.predict_levels(counter_sets,
                                                             0.1)
    finally:
        release_shared(block)


def test_shared_transport_inline_fallback():
    """Graphs below the threshold ship inline (no segment to leak)."""
    ref, block = dump_shared({"small": np.arange(3.0)})
    assert block is None
    assert ref.shm_name is None
    obj, attached = load_shared(ref)
    assert attached is None
    np.testing.assert_array_equal(obj["small"], np.arange(3.0))


def test_shared_context_cache_attaches_once(model):
    ref, block = dump_shared(model)
    try:
        cache = SharedContextCache(max_entries=2)
        first = cache.get(ref)
        assert cache.get(ref) is first
    finally:
        release_shared(block)


def test_shared_ref_is_picklable(model):
    ref, block = dump_shared(model)
    try:
        clone = pickle.loads(pickle.dumps(ref))
        assert isinstance(clone, SharedObjectRef)
        assert clone.shm_name == ref.shm_name
        assert clone.arrays == ref.arrays
    finally:
        release_shared(block)


# ---------------------------------------------------------------------------
# Campaign layers: evaluation grid, datagen, fleet
# ---------------------------------------------------------------------------

def _grid_payload(result):
    return [(r.policy_name, r.kernel_name, r.time_s, r.energy_j,
             r.normalized_edp, r.normalized_latency, r.epochs)
            for r in result.runs]


def test_compare_policies_fused_identical_across_widths(arch, model):
    factories = {
        "pcstall": functools.partial(PCSTALLPolicy, 0.10),
        "ssmdvfs": functools.partial(SSMDVFSController, model, 0.10),
    }
    kernels = _kernels()
    serial = _grid_payload(compare_policies(factories, kernels, arch,
                                            preset=0.10, seed=1))
    for width in (1, 4, 32):
        stats = CampaignStats()
        fused = compare_policies(factories, kernels, arch, preset=0.10,
                                 seed=1, stats=stats, fused=True,
                                 fuse_width=width)
        assert _grid_payload(fused) == serial, f"width {width} diverged"
        assert stats.counters["fused_tasks"] == \
            (len(factories) + 1) * len(kernels)
    # Wide groups actually batch inference and share noise tracks.
    assert stats.counters["fused_inference_groups"] > 0
    assert stats.counters["fused_noise_shared"] > 0


def test_cached_comparison_fused_namespaces_checkpoint(tmp_path, arch, model,
                                                       monkeypatch):
    """Fused/serial share the result cache but not checkpoint files."""
    import repro.evaluation.cache as evaluation_cache
    ckpt_paths: list = []
    real_ckpt = evaluation_cache.CampaignCheckpoint

    def recording_ckpt(path, **kwargs):
        ckpt_paths.append(str(path))
        return real_ckpt(path, **kwargs)

    monkeypatch.setattr(evaluation_cache, "CampaignCheckpoint",
                        recording_ckpt)
    factories = {"ssmdvfs": functools.partial(SSMDVFSController, model, 0.10)}
    kernels = _kernels()[:1]
    serial_stats = CampaignStats()
    serial = cached_comparison(tmp_path, factories, kernels, arch, 0.10,
                               seed=2, stats=serial_stats, checkpoint=True)
    fused_stats = CampaignStats()
    fused = cached_comparison(tmp_path, factories, kernels, arch, 0.10,
                              seed=2, stats=fused_stats, checkpoint=True,
                              fused=True, fuse_width=4, use_cache=False)
    assert _grid_payload(fused) == _grid_payload(serial)
    # Fused checkpoints store per-group results, serial per-task: the
    # two runs must never resume from each other's files.
    assert len(ckpt_paths) == 2
    assert ckpt_paths[0] != ckpt_paths[1]
    assert ".fused4" in ckpt_paths[1]
    # Results are bit-identical, so the grid artefact itself is shared:
    # a fused re-run with the cache on is a pure cache hit.
    hit_stats = CampaignStats()
    again = cached_comparison(tmp_path, factories, kernels, arch, 0.10,
                              seed=2, stats=hit_stats, fused=True,
                              fuse_width=4)
    assert _grid_payload(again) == _grid_payload(serial)
    assert hit_stats.counters["comparison_cache_hit"] == 1


def test_datagen_fused_identical(arch):
    config = ProtocolConfig(max_breakpoints_per_kernel=2, seed=3)
    kernels = _kernels()
    serial = generate_chunks_for_suite(kernels, arch, config=config)
    for width in (1, 2):
        stats = CampaignStats()
        fused = generate_chunks_for_suite(kernels, arch, config=config,
                                          fused=True, fuse_width=width,
                                          stats=stats)
        assert pickle.dumps(fused) == pickle.dumps(serial)
        assert stats.counters["fused_tasks"] == len(kernels)
    serial_set = DVFSDataset.from_breakpoint_chunks(serial)
    fused_set = DVFSDataset.from_breakpoint_chunks(fused)
    assert np.array_equal(serial_set.counters, fused_set.counters)
    assert np.array_equal(serial_set.sample_loss, fused_set.sample_loss)


def test_fleet_fused_export_identical(tmp_path, arch, model):
    trace = build_trace(arch, TraceConfig(trace="steady", jobs=8, nodes=2,
                                          seed=4))
    factory = functools.partial(SSMDVFSController, model, 0.10)

    def run_fleet(fused):
        stats = CampaignStats()
        scheduler = ClusterScheduler(arch, factory, num_nodes=2,
                                     policy_name="ssmdvfs", seed=4,
                                     stats=stats, fused=fused, fuse_width=4)
        result = scheduler.run(trace, trace_name="fused-test")
        path = tmp_path / f"fleet-{fused}.json"
        result.export_json(path)
        return path.read_bytes(), stats

    serial_bytes, _ = run_fleet(False)
    fused_bytes, stats = run_fleet(True)
    assert fused_bytes == serial_bytes
    assert stats.counters["fused_tasks"] == 8
