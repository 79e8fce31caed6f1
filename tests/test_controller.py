"""SSMDVFS runtime controller and reference policies."""

import pytest

from repro.errors import PolicyError
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.power.model import PowerModel
from repro.core.controller import SSMDVFSController
from repro.core.policy import ModelOraclePolicy, StaticPolicy


def _kernel(kind="memory", iterations=20):
    phase = (memory_phase("m", 120_000, warps=48, l1_miss=0.9, l2_miss=0.9)
             if kind == "memory" else compute_phase("c", 120_000, warps=16))
    return KernelProfile(f"ctl.{kind}", [phase], iterations=iterations,
                         jitter=0.05)


def _run(policy, arch, kernel, seed=3):
    sim = GPUSimulator(arch, kernel, PowerModel(), seed=seed)
    return sim.run(policy, keep_records=True)


def test_controller_validation(small_pipeline):
    model = small_pipeline.model("base")
    with pytest.raises(PolicyError):
        SSMDVFSController(model, preset=-0.1)


def test_controller_name_encodes_configuration(small_pipeline):
    model = small_pipeline.model("base")
    assert SSMDVFSController(model, 0.10).name == "ssmdvfs-p10"
    assert (SSMDVFSController(model, 0.20, use_calibrator=False).name
            == "ssmdvfs-nocal-p20")


def test_controller_runs_memory_kernel_at_low_levels(small_pipeline,
                                                     small_arch):
    """A strongly memory-bound kernel should be driven below default."""
    model = small_pipeline.model("base")
    controller = SSMDVFSController(model, preset=0.10)
    result = _run(controller, small_arch, _kernel("memory"))
    levels = [lvl for r in result.records for lvl in r.levels]
    assert min(levels) < small_arch.vf_table.default_level


def test_controller_latency_within_slack_on_compute(small_pipeline,
                                                    small_arch):
    """On a compute-bound kernel the controller must not blow far past
    the preset (calibrator keeps it honest)."""
    model = small_pipeline.model("base")
    kernel = _kernel("compute")
    base = _run(StaticPolicy(small_arch.vf_table.default_level),
                small_arch, kernel)
    controlled = _run(SSMDVFSController(model, preset=0.10), small_arch,
                      kernel)
    latency = controlled.time_s / base.time_s
    assert latency < 1.25  # preset 10 % plus bounded overshoot


def test_preset_trace_stays_in_bounds(small_pipeline, small_arch):
    model = small_pipeline.model("base")
    controller = SSMDVFSController(model, preset=0.10)
    _run(controller, small_arch, _kernel("compute"))
    trace = controller.preset_trace
    assert trace, "controller never recorded its working preset"
    assert all(0.0 <= p <= 0.10 + 1e-9 for p in trace)


def test_calibrate_tightens_when_prediction_exceeds_actual(small_pipeline,
                                                           small_arch):
    """The §III-C mechanism: predicted > actual means the core runs
    slower than promised, so the working preset must shrink."""
    model = small_pipeline.model("base")
    controller = SSMDVFSController(model, preset=0.10)
    sim = GPUSimulator(small_arch, _kernel("compute"), PowerModel(), seed=1)
    controller.reset(sim)
    record = sim.step_epoch()
    actuals = [c["inst_total"] for c in record.cluster_counters]
    # Promise 50 % more than reality for every cluster.
    controller._pending = [(i, a * 1.5) for i, a in enumerate(actuals)]
    controller._calibrate(record)
    assert controller.working_preset < 0.10

    # And the opposite direction relaxes back toward the user preset.
    tightened = controller.working_preset
    controller._cumulative_predicted = 0.0
    controller._cumulative_actual = 0.0
    controller._pending = [(i, a * 0.5) for i, a in enumerate(actuals)]
    controller._calibrate(record)
    assert controller.working_preset > tightened
    assert controller.working_preset <= 0.10


def test_no_calibrator_keeps_preset_fixed(small_pipeline, small_arch):
    model = small_pipeline.model("base")
    controller = SSMDVFSController(model, preset=0.10, use_calibrator=False)
    _run(controller, small_arch, _kernel("compute"))
    assert all(p == pytest.approx(0.10) for p in controller.preset_trace)


def test_controller_reset_between_runs(small_pipeline, small_arch):
    model = small_pipeline.model("base")
    controller = SSMDVFSController(model, preset=0.10)
    _run(controller, small_arch, _kernel("compute"))
    first_trace = list(controller.preset_trace)
    _run(controller, small_arch, _kernel("compute"))
    assert controller.preset_trace == first_trace  # deterministic reset


def test_static_policy_pins_level(small_arch):
    result = _run(StaticPolicy(2), small_arch, _kernel("memory"))
    assert all(set(r.levels) == {2} for r in result.records)


def test_static_policy_validates_level(small_arch):
    policy = StaticPolicy(99)
    sim = GPUSimulator(small_arch, _kernel("memory"), PowerModel(), seed=1)
    with pytest.raises(PolicyError):
        policy.reset(sim)


def test_oracle_policy_saves_energy_on_memory_kernel(small_arch):
    # On the 2-cluster test GPU, frequency-invariant DRAM/L2 traffic
    # energy dominates a memory kernel's budget, so the achievable core
    # saving is a few percent (the 24-cluster config shows 20 %+).
    kernel = _kernel("memory")
    base = _run(StaticPolicy(small_arch.vf_table.default_level), small_arch,
                kernel)
    oracle = _run(ModelOraclePolicy(preset=0.10), small_arch, kernel)
    assert oracle.energy_j < base.energy_j * 0.96
    assert oracle.time_s < base.time_s * 1.12


def test_oracle_policy_respects_preset_on_compute(small_arch):
    kernel = _kernel("compute")
    base = _run(StaticPolicy(small_arch.vf_table.default_level), small_arch,
                kernel)
    oracle = _run(ModelOraclePolicy(preset=0.10), small_arch, kernel)
    assert oracle.time_s / base.time_s < 1.13


def test_oracle_validation():
    with pytest.raises(PolicyError):
        ModelOraclePolicy(preset=-0.1)
