"""Residency analysis, seed sweeps, counter-noise wrapper, quantization."""

import numpy as np
import pytest

from repro.errors import PolicyError, SimulationError
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.evaluation.residency import (ResidencyProfile,
                                        residency_from_records)
from repro.evaluation.robustness import (NoisyCountersPolicy, seed_sweep)
from repro.core.policy import StaticPolicy


def _kernel(kind="memory", iterations=10):
    phase = (memory_phase("m", 120_000, warps=48, l1_miss=0.9, l2_miss=0.9)
             if kind == "memory" else compute_phase("c", 120_000, warps=16))
    return KernelProfile(f"rr.{kind}", [phase], iterations=iterations,
                         jitter=0.05)


# ---------------------------------------------------------------------------
# Residency
# ---------------------------------------------------------------------------

def test_static_policy_residency_is_pinned(small_arch):
    simulator = GPUSimulator(small_arch, _kernel(), seed=1)
    result = simulator.run(StaticPolicy(2), keep_records=True)
    profile = residency_from_records(result.records, 6)
    assert int(np.argmax(profile.fractions)) == 2
    assert profile.fractions[2] == pytest.approx(1.0)
    assert profile.entropy_bits() == pytest.approx(0.0)
    assert profile.mean_level == pytest.approx(2.0)


def test_residency_profile_validation():
    with pytest.raises(SimulationError):
        residency_from_records([], 6)
    with pytest.raises(SimulationError):
        ResidencyProfile(fractions=(0.5, 0.2))  # does not sum to 1


def test_residency_entropy_of_uniform():
    profile = ResidencyProfile(fractions=(0.25,) * 4)
    assert profile.entropy_bits() == pytest.approx(2.0)


def test_residency_render():
    profile = ResidencyProfile(fractions=(1.0, 0.0))
    assert "L0" in profile.render()


def test_ssmdvfs_residency_low_on_memory_kernel(small_pipeline, small_arch):
    from repro.core.controller import SSMDVFSController
    simulator = GPUSimulator(small_arch, _kernel("memory"), seed=2)
    result = simulator.run(
        SSMDVFSController(small_pipeline.model("base"), 0.10),
        keep_records=True)
    profile = residency_from_records(result.records, 6)
    assert profile.mean_level < 4.0  # spends real time below default


# ---------------------------------------------------------------------------
# Counter-noise wrapper
# ---------------------------------------------------------------------------

def test_noise_wrapper_validation(small_pipeline):
    from repro.core.controller import SSMDVFSController
    controller = SSMDVFSController(small_pipeline.model("base"), 0.10)
    with pytest.raises(PolicyError):
        NoisyCountersPolicy(controller, sigma=-0.1)


def test_zero_noise_is_transparent(small_pipeline, small_arch):
    from repro.core.controller import SSMDVFSController
    model = small_pipeline.model("base")
    kernel = _kernel("memory")
    plain = GPUSimulator(small_arch, kernel, seed=3).run(
        SSMDVFSController(model, 0.10), keep_records=False)
    wrapped = GPUSimulator(small_arch, kernel, seed=3).run(
        NoisyCountersPolicy(SSMDVFSController(model, 0.10), sigma=0.0),
        keep_records=False)
    assert wrapped.energy_j == pytest.approx(plain.energy_j)
    assert wrapped.time_s == pytest.approx(plain.time_s)


def test_noise_degrades_gracefully(small_pipeline, small_arch):
    """Moderate counter noise must not break the controller: the run
    completes and latency stays bounded."""
    from repro.core.controller import SSMDVFSController
    model = small_pipeline.model("base")
    kernel = _kernel("compute")
    base = GPUSimulator(small_arch, kernel, seed=4).run(
        StaticPolicy(small_arch.vf_table.default_level), keep_records=False)
    noisy = GPUSimulator(small_arch, kernel, seed=4).run(
        NoisyCountersPolicy(SSMDVFSController(model, 0.10), sigma=0.10,
                            seed=4),
        keep_records=False)
    assert noisy.time_s / base.time_s < 1.35


def test_noise_wrapper_name():
    class Stub:
        name = "stub"

        def reset(self, simulator):
            pass

        def decide(self, record):
            return 0

    assert NoisyCountersPolicy(Stub(), 0.05).name == "stub+noise0.05"


# ---------------------------------------------------------------------------
# Seed sweep
# ---------------------------------------------------------------------------

def test_seed_sweep_aggregates(small_arch):
    factories = {"min": lambda: StaticPolicy(0)}
    result = seed_sweep(factories, [_kernel("memory", iterations=6)],
                        small_arch, preset=0.10, seeds=[1, 2, 3])
    assert set(result.mean_edp) == {"baseline", "min"}
    assert result.std_edp["baseline"] == pytest.approx(0.0)
    assert result.std_edp["min"] >= 0.0
    assert len(result.comparisons) == 3
    assert "Seed sweep" in result.render()


def test_seed_sweep_needs_seeds(small_arch):
    with pytest.raises(SimulationError):
        seed_sweep({}, [_kernel()], small_arch, 0.1, seeds=[])


# ---------------------------------------------------------------------------
# Quantized model artefact
# ---------------------------------------------------------------------------

def test_quantized_model_metadata(small_pipeline):
    model = small_pipeline.model("pruned")
    quantized = model.quantized(16)
    assert quantized.metadata["quantized_bits"] == 16
    assert quantized.metadata["max_weight_error"] >= 0
    assert quantized.feature_names == model.feature_names


def test_quantized_model_preserves_sparsity(small_pipeline):
    model = small_pipeline.model("pruned")
    quantized = model.quantized(8)
    assert quantized.decision_model.sparsity == pytest.approx(
        model.decision_model.sparsity)


def test_quantized_16bit_agrees_with_float(small_pipeline, small_arch):
    from repro.gpu.counters import CounterSet
    model = small_pipeline.model("base")
    quantized = model.quantized(16)
    counters = CounterSet({name: 1.0 for name in model.feature_names})
    counters["issue_slots"] = 40_000.0
    counters["inst_total"] = 10_000.0
    for preset in (0.05, 0.10, 0.20):
        assert (model.decision_maker.predict_level(counters, preset)
                == quantized.decision_maker.predict_level(counters, preset))
