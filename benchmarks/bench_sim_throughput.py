"""Simulator throughput — substrate speed, not a paper artefact.

Times one 10 us DVFS epoch of the 24-cluster GTX Titan X simulator
(interval model, all counters, power).  This bounds every other
experiment's runtime: a Fig. 4 campaign simulates tens of thousands of
these epochs.

Also times the campaign layer itself: a small data-generation campaign
run serially and through the process-pool fan-out, so parallel
speedups (and regression of the fan-out overhead) are measurable.

The batched-inference test doubles as a perf-regression gate: it times
batched vs per-cluster scalar inference with plain
``time.perf_counter`` (so it runs under ``--benchmark-disable`` in the
CI smoke job) and persists the numbers to
``benchmarks/results/BENCH_epoch_engine.json``.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np

from repro import store
from repro.cli import PAPER_FEATURES
from repro.core.calibrator import Calibrator
from repro.core.combined import SSMDVFSModel
from repro.core.controller import SSMDVFSController
from repro.core.decision_maker import DecisionMaker
from repro.datagen.dataset import DVFSDataset
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.datagen.protocol import ProtocolConfig, generate_for_suite
from repro.evaluation.runner import compare_policies
from repro.gpu.arch import small_test_config
from repro.gpu.counters import COUNTER_NAMES, CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.nn.mlp import MLP
from repro.parallel import CampaignStats
from repro.workloads.suites import (evaluation_suite, kernel_by_name,
                                    scale_kernel_to_duration)

CAMPAIGN_CFG = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)

RESULTS_PATH = Path(__file__).resolve().parent / "results" / \
    "BENCH_epoch_engine.json"


def _update_results(section: str, payload: dict) -> None:
    """Merge one section into the persisted epoch-engine result file."""
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    if RESULTS_PATH.exists():
        try:
            results = json.loads(RESULTS_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            results = {}
    results[section] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")


def _campaign_suite():
    return [
        KernelProfile("bench.compute",
                      [compute_phase("c", 120_000, warps=16)],
                      iterations=6, jitter=0.05),
        KernelProfile("bench.memory",
                      [memory_phase("m", 120_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=6, jitter=0.05),
        KernelProfile("bench.balanced", [balanced_phase("b", 120_000)],
                      iterations=6, jitter=0.05),
        KernelProfile("bench.mixed",
                      [compute_phase("c", 80_000, warps=20),
                       memory_phase("m", 80_000, warps=40)],
                      iterations=5, jitter=0.06),
    ]


def _run_campaign(workers):
    arch = small_test_config(num_clusters=2)
    stats = CampaignStats()
    return DVFSDataset.from_breakpoints(generate_for_suite(
        _campaign_suite(), arch, config=CAMPAIGN_CFG, workers=workers,
        stats=stats))


def test_epoch_step_throughput(arch, benchmark):
    kernel = kernel_by_name("rodinia.hotspot").with_iterations(10_000)
    simulator = GPUSimulator(arch, kernel, seed=1)

    record = benchmark(simulator.step_epoch)
    assert record.instructions > 0
    assert len(record.cluster_counters) == arch.num_clusters


def test_campaign_serial_throughput(benchmark):
    dataset = benchmark.pedantic(_run_campaign, args=(1,), rounds=2,
                                 iterations=1)
    assert dataset.num_samples > 0


def test_campaign_parallel_throughput(benchmark):
    dataset = benchmark.pedantic(_run_campaign, args=(2,), rounds=2,
                                 iterations=1)
    serial = _run_campaign(1)
    assert np.array_equal(dataset.counters, serial.counters)


# ---------------------------------------------------------------------------
# Epoch-engine perf gate: batched inference
# ---------------------------------------------------------------------------

def _synthetic_runtime_models(num_levels=6, hidden=24, seed=11):
    """A DecisionMaker/Calibrator pair with random (but fitted) weights."""
    rng = np.random.default_rng(seed)
    extractor = FeatureExtractor(PAPER_FEATURES, issue_width=4.0)
    width = extractor.width + 1
    scaler = FeatureScaler().fit(rng.uniform(0.0, 50.0, size=(256, width)))
    decision = DecisionMaker(MLP([width, hidden, num_levels], rng=rng),
                             extractor, scaler, num_levels)
    calibrator = Calibrator(MLP([width, hidden, 1], rng=rng), extractor,
                            scaler)
    counter_sets = [
        CounterSet.from_vector(rng.uniform(1.0, 1e4, size=len(COUNTER_NAMES)))
        for _ in range(24)
    ]
    return decision, calibrator, counter_sets


def test_batched_inference_speedup():
    """One (clusters, features) pass must beat per-cluster scalar passes."""
    decision, calibrator, counter_sets = _synthetic_runtime_models()
    preset = 0.1
    repeats = 30

    def scalar_pass():
        levels = [decision.predict_level(c, preset) for c in counter_sets]
        return levels, [calibrator.predict_instructions(c, level)
                        for c, level in zip(counter_sets, levels)]

    def batched_pass():
        levels = decision.predict_levels(counter_sets, preset)
        return levels, calibrator.predict_instructions_batch(counter_sets,
                                                             levels)

    # Same decisions either way; the regression head agrees to BLAS
    # rounding (batched and single-row matmuls differ by ~1 ULP).
    scalar_levels, scalar_insts = scalar_pass()
    batched_levels, batched_insts = batched_pass()
    assert scalar_levels == batched_levels
    np.testing.assert_allclose(scalar_insts, batched_insts, rtol=1e-12)

    def best_of(fn, trials=3):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / repeats

    scalar_s = best_of(scalar_pass)
    batched_s = best_of(batched_pass)
    speedup = scalar_s / batched_s
    _update_results("batched_inference", {
        "clusters": len(counter_sets),
        "scalar_us_per_decide": scalar_s * 1e6,
        "batched_us_per_decide": batched_s * 1e6,
        "speedup": speedup,
    })
    assert speedup >= 1.5, f"batched inference regressed: {speedup:.2f}x"


# ---------------------------------------------------------------------------
# Fused campaign engine: fused vs parallel vs serial wall-clock
# ---------------------------------------------------------------------------

FUSED_RESULTS_PATH = Path(__file__).resolve().parent / "results" / \
    "BENCH_fused_sim.json"

#: Presets swept per kernel — the Fig. 4 grid shape.  Each preset is a
#: full campaign task, so the fused engine co-simulates
#: ``len(_FUSED_PRESETS) + 1`` (baseline) tasks per kernel and shares
#: their noise tracks and interval-model solves.
_FUSED_PRESETS = (0.04, 0.05, 0.06, 0.08, 0.10, 0.12, 0.15, 0.18,
                  0.20, 0.25, 0.30)
_FUSED_SEED = 3
_FUSED_KERNEL_US = 400.0


def _fused_synth_model(num_levels, hidden=48, seed=11):
    """A runnable SSMDVFS model with random (but fitted) weights.

    The fused/parallel/serial comparison only needs the *shape* of real
    inference traffic — per-epoch Decision-maker + Calibrator forward
    passes over live counters — not a trained policy.
    """
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


def _fused_controller(model, preset):
    return SSMDVFSController(model, preset)


def _fused_eval_setup():
    """The benchmark campaign: preset sweep x evaluation kernels."""
    arch = small_test_config(num_clusters=4)
    model = _fused_synth_model(len(arch.vf_table))
    factories = {
        f"ssmdvfs-{preset:.2f}": functools.partial(_fused_controller,
                                                   model, preset)
        for preset in _FUSED_PRESETS
    }
    kernels = [scale_kernel_to_duration(k, arch, _FUSED_KERNEL_US * 1e-6)
               for k in evaluation_suite()[:4]]
    return arch, factories, kernels


def _fused_eval_run(fused, workers, fuse_width=64):
    """One full campaign; returns (comparable payload, stats)."""
    arch, factories, kernels = _fused_eval_setup()
    stats = CampaignStats()
    result = compare_policies(factories, kernels, arch, preset=0.10,
                              seed=_FUSED_SEED, workers=workers, stats=stats,
                              fused=fused, fuse_width=fuse_width)
    payload = [(r.policy_name, r.kernel_name, r.time_s, r.energy_j,
                r.normalized_edp, r.normalized_latency, r.epochs)
               for r in result.runs]
    return payload, stats


def test_fused_campaign_speedup():
    """The fused engine must beat the pool fan-out >= 3x, bit-identically.

    One campaign = (len(_FUSED_PRESETS) + 1 baseline) policies x 4
    evaluation kernels = 48 tasks.  The serial and parallel legs run
    each task's quantum loop independently; the fused leg co-simulates
    all tasks of a group in lockstep, sharing the solution cache, the
    position-indexed noise tracks and one batched inference pass per
    quantum.  Identity is asserted before timing: the speedup gate is
    only meaningful if the fused path produces byte-identical results.
    Best-of-3 wall-clock per leg (plain ``perf_counter`` so the gate
    runs under ``--benchmark-disable`` in CI).
    """
    serial_payload, _ = _fused_eval_run(False, 1)
    parallel_payload, _ = _fused_eval_run(False, 2)
    fused_payload, fused_stats = _fused_eval_run(True, 1)
    assert fused_payload == serial_payload, \
        "fused campaign diverged from the serial path"
    assert parallel_payload == serial_payload, \
        "parallel campaign diverged from the serial path"

    def best_of(fn, trials=3):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    serial_s = best_of(lambda: _fused_eval_run(False, 1))
    parallel_s = best_of(lambda: _fused_eval_run(False, 2))
    fused_s = best_of(lambda: _fused_eval_run(True, 1))
    vs_parallel = parallel_s / fused_s
    vs_serial = serial_s / fused_s
    counters = {name: value
                for name, value in sorted(fused_stats.counters.items())
                if name.startswith("fused_")}
    tasks = (len(_FUSED_PRESETS) + 1) * 4
    FUSED_RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    store.atomic_write_text(FUSED_RESULTS_PATH, json.dumps({
        "workload": (f"{len(_FUSED_PRESETS)} presets + baseline x 4 "
                     f"evaluation kernels @ {_FUSED_KERNEL_US:.0f}us, "
                     "4 clusters"),
        "tasks": tasks,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "fused_s": fused_s,
        "fused_vs_parallel": vs_parallel,
        "fused_vs_serial": vs_serial,
        "bit_identical": True,
        "counters": counters,
    }, indent=2, sort_keys=True) + "\n")
    # Deterministic part of the gate: the fused run must actually have
    # fused (grouped inference, shared noise), not silently fallen back
    # to per-task decisions.
    assert counters.get("fused_tasks", 0) == tasks
    assert counters.get("fused_inference_groups", 0) > 0
    assert counters.get("fused_noise_shared", 0) > 0
    assert counters.get("fused_quanta", 0) > 0
    # Timing part: the fused engine's dedup (shared solves + noise) and
    # batched inference carry the gate; measured headroom is ~3.4-3.6x.
    assert vs_parallel >= 3.0, \
        f"fused campaign speedup collapsed: {vs_parallel:.2f}x vs parallel"
    assert vs_serial >= 2.0, \
        f"fused campaign speedup collapsed: {vs_serial:.2f}x vs serial"
