"""Fault injection and the guarded controller: sanitize, trip, recover."""

import copy
import math
from functools import partial

import numpy as np
import pytest

from repro import faults
from repro.baselines.governor import UtilizationGovernor
from repro.cli import main
from repro.core.controller import SSMDVFSController
from repro.core.drift import DriftMonitor, RollbackManager
from repro.core.event_driven import EventDrivenController
from repro.core import guarded as guarded_module
from repro.core.guarded import ACTIVE, FALLBACK, PROBATION, GuardedController
from repro.core.policy import StaticPolicy, policy_counters, validate_decision
from repro.errors import FaultInjectionError, PolicyError
from repro.evaluation.robustness import fault_sweep
from repro.evaluation.runner import compare_policies
from repro.faults import (FAULT_MODES, FaultConfig, FaultyPolicy,
                          build_faulty_policy, config_for_mode,
                          derive_fault_seed)
from repro.gpu.counters import CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignStats
from repro.store import ArtifactStore


def _kernel(iterations=8):
    return KernelProfile("f.balanced", [balanced_phase("b", 120_000)],
                         iterations=iterations, jitter=0.05)


def _run(arch, policy, seed=0, iterations=8):
    simulator = GPUSimulator(arch, _kernel(iterations), seed=seed)
    return simulator.run(policy, keep_records=False)


# ---------------------------------------------------------------------------
# FaultConfig
# ---------------------------------------------------------------------------

def test_fault_config_validates_rates():
    with pytest.raises(FaultInjectionError):
        FaultConfig(counter_nan=1.5)
    with pytest.raises(FaultInjectionError):
        FaultConfig(actuation_drop=-0.1)
    assert not FaultConfig().any_active
    assert FaultConfig(counter_nan=0.1).any_active
    assert FaultConfig(seed=1).with_seed(9).seed == 9


def test_config_for_mode_covers_every_mode():
    for mode in FAULT_MODES:
        config = config_for_mode(mode, 0.3, seed=2)
        assert config.any_active
        assert config.seed == 2
    with pytest.raises(FaultInjectionError):
        config_for_mode("gamma-rays", 0.3)


# ---------------------------------------------------------------------------
# FaultyPolicy injection behaviour
# ---------------------------------------------------------------------------

def test_fault_injection_is_deterministic_per_seed(small_arch):
    def run_with(seed):
        policy = FaultyPolicy(StaticPolicy(2),
                              FaultConfig(counter_nan=0.3, seed=seed))
        result = _run(small_arch, policy)
        return result.time_s, result.energy_j, dict(policy.counters)

    assert run_with(5) == run_with(5)
    assert run_with(5)[2] != run_with(6)[2]


def test_fault_streams_are_independent_per_run(small_arch):
    # One FaultConfig fanned over a campaign must not replay the same
    # fault sequence in every task: the stream seed mixes in the run
    # identity (workload name, simulator seed) while staying stable
    # for the same run.
    config = FaultConfig(counter_dropout=0.5, seed=7)

    def stream(name, seed):
        kernel = KernelProfile(name, [balanced_phase("b", 50_000)],
                               iterations=2)
        simulator = GPUSimulator(small_arch, kernel, seed=seed)
        policy = FaultyPolicy(StaticPolicy(3), config)
        policy.reset(simulator)
        return policy._rng.random(16).tolist()

    assert stream("k.same", 0) == stream("k.same", 0)
    assert stream("k.one", 0) != stream("k.two", 0)
    assert stream("k.one", 0) != stream("k.one", 1)


def test_derive_fault_seed_is_stable_and_identity_sensitive():
    assert derive_fault_seed(7, "k.a", 0) == derive_fault_seed(7, "k.a", 0)
    assert derive_fault_seed(7, "k.a", 0) != derive_fault_seed(7, "k.b", 0)
    assert derive_fault_seed(7, "k.a", 0) != derive_fault_seed(8, "k.a", 0)


def test_dropout_zeroes_whole_windows(small_arch):
    policy = FaultyPolicy(StaticPolicy(2),
                          FaultConfig(counter_dropout=1.0, seed=0))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    policy.reset(simulator)
    record = simulator.step_epoch()
    corrupted = policy.corrupt_record(record)
    for counters in corrupted.cluster_counters:
        assert not np.any(counters.as_vector())
    assert policy.counters["fault_counter_dropout"] == len(
        corrupted.cluster_counters)


def test_stuck_counters_redeliver_previous_epoch(small_arch):
    policy = FaultyPolicy(StaticPolicy(2),
                          FaultConfig(counter_stuck=1.0, seed=0))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    policy.reset(simulator)
    first = policy.corrupt_record(simulator.step_epoch())
    second = policy.corrupt_record(simulator.step_epoch())
    for before, after in zip(first.cluster_counters,
                             second.cluster_counters):
        assert np.array_equal(before.as_vector(), after.as_vector())
    assert policy.counters["fault_counter_stuck"] == len(
        second.cluster_counters)


def test_nan_and_spike_faults_mark_counters(small_arch):
    policy = FaultyPolicy(StaticPolicy(2),
                          FaultConfig(counter_nan=0.5, counter_spike=0.5,
                                      seed=3))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    policy.reset(simulator)
    corrupted = policy.corrupt_record(simulator.step_epoch())
    vector = np.concatenate([c.as_vector()
                             for c in corrupted.cluster_counters])
    assert np.isnan(vector).any()
    assert policy.counters["fault_counter_nan"] > 0
    assert policy.counters["fault_counter_spike"] > 0


def test_actuation_drop_holds_previous_levels(small_arch):
    policy = FaultyPolicy(StaticPolicy(3),
                          FaultConfig(actuation_drop=1.0, seed=0))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    policy.reset(simulator)
    record = simulator.step_epoch()
    decision = policy.decide(record)
    assert decision == list(record.levels)  # never reaches level 3
    assert policy.counters["fault_actuation_drop"] == 1


def test_faulted_run_completes_for_every_mode(small_arch):
    for mode in FAULT_MODES:
        policy = build_faulty_policy(UtilizationGovernor,
                                     config_for_mode(mode, 0.5, seed=1))
        result = _run(small_arch, policy)
        assert result.epochs > 0
        assert math.isfinite(result.time_s) and math.isfinite(result.energy_j)


# ---------------------------------------------------------------------------
# Decision validation
# ---------------------------------------------------------------------------

def test_validate_decision_accepts_scalar_and_sequence():
    assert validate_decision(2, 6, 3) == [2, 2, 2]
    assert validate_decision([0, 5, 3], 6, 3) == [0, 5, 3]
    assert validate_decision(np.int64(4), 6, 2) == [4, 4]
    for good, expected in ((True, [1, 1, 1]),
                           ([True, False, True], [1, 0, 1]),
                           ([np.int64(1), np.int64(5), np.int64(0)],
                            [1, 5, 0]),
                           (2.0, [2, 2, 2]),
                           ([2.0, np.float32(1.0), 0], [2, 1, 0]),
                           (np.uint8(3), [3, 3, 3]),
                           ((1, 2, 3), [1, 2, 3]),
                           (np.array([1, 2, 3]), [1, 2, 3]),
                           (np.array([1.0, 2.0, 3.0]), [1, 2, 3]),
                           (range(3), [0, 1, 2])):
        levels = validate_decision(good, 6, 3)
        assert levels == expected
        assert all(type(level) is int for level in levels)
    # The checked levels are a fresh list, never the policy's own.
    decision = [0, 5, 3]
    levels = validate_decision(decision, 6, 3)
    assert levels == decision and levels is not decision


def test_validate_decision_rejects_malformed_output():
    for bad in ([1, 2], [1, 2, 9], [1, 2, float("nan")], [1, 2, 2.5],
                [1, 2, "x"], [1, 2, -1],
                # Wrong arity, as a list, tuple or array.
                [1, 2, 3, 4], [], (1, 2), np.array([1, 2]),
                # A ragged nesting numpy cannot shape.
                ((1,), (1, 2), 3),
                # Not a real number: None, a 0-d array, numpy bools,
                # nested rows, an iterator and a string.
                None, [1, 2, None], np.array(2), np.bool_(True),
                [np.bool_(True)] * 3, np.array([[1], [2], [3]]),
                iter([1, 2, 3]), "x",
                # Integral but out of range, or non-integral.
                2**60, [1, 2, 2**60], 2.5, np.float64("inf")):
        with pytest.raises(PolicyError):
            validate_decision(bad, 6, 3)


# ---------------------------------------------------------------------------
# GuardedController
# ---------------------------------------------------------------------------

def test_guard_sanitizes_counters_before_inner_policy(small_arch):
    seen = []

    class Spy(StaticPolicy):
        def decide(self, record):
            seen.append(record)
            return super().decide(record)

    guard = GuardedController(Spy(2), trip_threshold=1000)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    record = simulator.step_epoch()
    vector = record.cluster_counters[0].as_vector()
    vector[0] = float("nan")
    vector[1] = -5.0
    vector[2] = 1e30
    record.cluster_counters[0] = CounterSet.from_vector(vector)
    guard.decide(record)
    observed = seen[-1].cluster_counters[0].as_vector()
    assert np.isfinite(observed).all()
    assert (observed >= 0).all()
    assert observed.max() <= guarded_module.MAX_COUNTER_VALUE
    counters = policy_counters(guard)
    assert counters["guard_counter_nonfinite"] == 1
    assert counters["guard_counter_negative"] == 1
    assert counters["guard_counter_clamped"] == 1


def test_guard_trips_to_fallback_and_recovers(small_arch, monkeypatch):
    monkeypatch.setattr(guarded_module, "FALLBACK_EPOCHS", 3)
    monkeypatch.setattr(guarded_module, "PROBATION_EPOCHS", 2)
    guard = GuardedController(StaticPolicy(2), trip_threshold=2)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)

    def nan_record():
        record = simulator.step_epoch()
        for index, counters in enumerate(record.cluster_counters):
            vector = counters.as_vector()
            vector[:] = float("nan")
            record.cluster_counters[index] = CounterSet.from_vector(vector)
        return record

    fallback = [guard._fallback_level] * len(simulator.clusters)
    # Two anomalous epochs trip the guard; fallback decision from then on.
    guard.decide(nan_record())
    assert guard.state == ACTIVE
    assert guard.decide(nan_record()) == fallback
    assert guard.state == FALLBACK
    counters = policy_counters(guard)
    assert counters["guard_trips"] == 1
    # Clean epochs: serve out fallback, pass probation, recover.
    states = []
    for _ in range(6):
        guard.decide(simulator.step_epoch())
        states.append(guard.state)
    assert PROBATION in states
    assert guard.state == ACTIVE
    assert policy_counters(guard)["guard_recoveries"] == 1


def test_guard_probation_relapse_returns_to_fallback(small_arch,
                                                     monkeypatch):
    monkeypatch.setattr(guarded_module, "FALLBACK_EPOCHS", 1)
    monkeypatch.setattr(guarded_module, "PROBATION_EPOCHS", 5)
    guard = GuardedController(StaticPolicy(2), trip_threshold=1)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)

    def zero_record():
        record = simulator.step_epoch()
        for index in range(len(record.cluster_counters)):
            record.cluster_counters[index] = CounterSet()
        return record

    guard.decide(zero_record())  # trip (dropout anomaly, threshold 1)
    assert guard.state == FALLBACK
    guard.decide(simulator.step_epoch())  # fallback window ends
    assert guard.state == PROBATION
    guard.decide(zero_record())  # anomaly during probation
    assert guard.state == FALLBACK
    assert policy_counters(guard)["guard_probation_failures"] == 1


def test_guard_contains_inner_policy_exceptions(small_arch):
    class Exploding(StaticPolicy):
        def decide(self, record):
            raise RuntimeError("model blew up")

    guard = GuardedController(Exploding(2), trip_threshold=3)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    result = simulator.run(guard, keep_records=False)
    assert result.epochs > 0
    counters = policy_counters(guard)
    assert counters["guard_policy_error"] > 0
    assert counters["guard_trips"] >= 1


def test_guard_rejects_invalid_decisions(small_arch):
    class Malformed(StaticPolicy):
        def decide(self, record):
            return [99] * len(self.simulator.clusters)

    guard = GuardedController(Malformed(2), trip_threshold=2)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    result = simulator.run(guard, keep_records=False)
    assert result.epochs > 0
    assert policy_counters(guard)["guard_decision_invalid"] > 0


def test_total_sensor_dropout_engages_fallback(small_arch):
    """The CI smoke assertion: 100 % dropout must degrade, not crash."""
    policy = build_faulty_policy(UtilizationGovernor,
                                 config_for_mode("dropout", 1.0, seed=1))
    result = _run(small_arch, policy)
    assert result.epochs > 0
    counters = policy_counters(policy)
    assert counters["guard_trips"] >= 1
    assert counters["guard_fallback_epochs"] > 0


def test_guarded_controller_survives_calibrator_nan(small_arch,
                                                    small_pipeline,
                                                    monkeypatch):
    model = small_pipeline.models["base"]

    def nan_batch(counters, levels):
        return [float("nan")] * len(levels)

    # Poison the (session-shared) calibrator for this test only.
    monkeypatch.setattr(model.calibrator, "predict_instructions_batch",
                        nan_batch)

    controller = SSMDVFSController(model, preset=0.10)
    guard = GuardedController(controller)
    result = _run(small_arch, guard)
    assert result.epochs > 0
    counters = policy_counters(guard)
    assert counters["calibration_anomalies"] > 0
    assert math.isfinite(controller.working_preset)


@pytest.mark.parametrize("make_controller", (SSMDVFSController,
                                             EventDrivenController))
def test_nan_calibrator_is_an_anomaly_on_every_path(small_arch,
                                                    small_pipeline,
                                                    make_controller):
    """A Calibrator that outputs NaN reads as a calibration anomaly, not
    as an all-zero prediction (a full shortfall), whichever path made
    the prediction: batched per cluster or event-driven."""
    model = copy.deepcopy(small_pipeline.models["base"])
    regressor = model.calibrator.model
    regressor.layers[-1].bias[:] = np.nan
    rows, nonfinite = [], []
    predict_scalar = regressor.predict_scalar

    def counting_predict_scalar(x):
        predictions = predict_scalar(x)
        rows.append(len(x))
        nonfinite.append(int((~np.isfinite(predictions)).sum()))
        return predictions

    regressor.predict_scalar = counting_predict_scalar
    controller = make_controller(model, 0.10)
    _run(small_arch, controller)
    assert controller.counters["calibration_anomalies"] > 0
    assert controller.last_gap is None
    assert math.isfinite(controller.working_preset)
    # Every predicted row is NaN.
    assert sum(rows) > 0
    assert sum(nonfinite) == sum(rows)


def test_policy_counters_counts_each_layer_once(tmp_path, small_pipeline):
    controller = SSMDVFSController(small_pipeline.models["base"], 0.10)
    monitor = DriftMonitor()
    rollback = RollbackManager(ArtifactStore(tmp_path), "pair",
                               lambda model: model)
    guard = GuardedController(controller, drift_monitor=monitor,
                              rollback=rollback)
    policy = FaultyPolicy(guard, FaultConfig(counter_nan=0.1, seed=0))
    layers = [policy, guard, controller, monitor, rollback]
    for amount, layer in enumerate(layers, start=1):
        layer.counters["shared"] += amount
        layer.counters[f"own_{amount}"] += 10 * amount
    folded = policy_counters(policy)
    assert folded == {"shared": 15, "calibration_anomalies": 0,
                      **{f"own_{n}": 10 * n for n in range(1, 6)}}
    # A fresh Counter, not a view: a snapshot stays put.
    folded["shared"] += 100
    assert policy_counters(policy)["shared"] == 15


def test_controller_log_bias_survives_spiked_counters(small_arch,
                                                      small_pipeline,
                                                      monkeypatch):
    monkeypatch.setattr(faults, "SPIKE_MAGNITUDE", 1e9)
    model = small_pipeline.models["base"]
    controller = SSMDVFSController(model, preset=0.10)
    policy = FaultyPolicy(GuardedController(controller),
                          FaultConfig(counter_spike=0.4, seed=2))
    result = _run(small_arch, policy)
    assert result.epochs > 0
    assert math.isfinite(controller.working_preset)
    assert abs(controller._log_bias) <= 30.0


# ---------------------------------------------------------------------------
# fault_sweep campaign + CLI
# ---------------------------------------------------------------------------

def test_fault_sweep_reports_cells_and_counters(small_arch):
    stats = CampaignStats()
    result = fault_sweep({"static": lambda: StaticPolicy(2)},
                         [_kernel(iterations=4)], small_arch, 0.10,
                         ["nan"], [0.0, 0.8], seed=1, stats=stats)
    assert len(result.cells) == 2
    clean, faulted = result.cells
    assert clean.rate == 0.0 and not clean.counters.get("fault_counter_nan")
    assert faulted.counters["fault_counter_nan"] > 0
    assert faulted.kernels == 1
    rendered = result.render()
    assert "nan" in rendered and "static" in rendered
    assert stats.counters["fault_counter_nan"] > 0


def test_pooled_comparison_folds_the_same_policy_counters(small_arch):
    factory = partial(build_faulty_policy, partial(StaticPolicy, 2),
                      config_for_mode("nan", 0.8, seed=1))
    kernels = [_kernel(iterations=4), _kernel(iterations=3)]

    def policy_part(workers):
        stats = CampaignStats()
        compare_policies({"static": factory}, kernels, small_arch, 0.10,
                         seed=1, workers=workers, stats=stats)
        modes = {stage.mode for stage in stats.stages}
        return modes, {name: amount for name, amount in stats.counters.items()
                       if name.startswith(("fault_", "guard_"))}

    serial_modes, serial = policy_part(1)
    pooled_modes, pooled = policy_part(2)
    assert serial_modes == {"serial"} and pooled_modes == {"parallel"}
    assert serial["fault_counter_nan"] > 0 and serial["guard_trips"] > 0
    assert pooled == serial


def test_fault_sweep_guard_reduces_violations_vs_bare(small_arch):
    factories = {"governor": UtilizationGovernor}
    kernels = [_kernel(iterations=4)]
    guarded = fault_sweep(factories, kernels, small_arch, 0.10,
                          ["dropout"], [1.0], seed=1, guard=True)
    assert guarded.guard_engagements() >= 1
    bare = fault_sweep(factories, kernels, small_arch, 0.10,
                       ["dropout"], [1.0], seed=1, guard=False)
    assert bare.guard_engagements() == 0


def test_cli_faults_smoke(capsys):
    rc = main(["faults", "--small", "--mode", "dropout",
               "--rates", "0", "1.0", "--kernels", "1",
               "--duration-us", "60", "--stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fault sweep" in out
    assert "guard trips:" in out


def test_cli_faults_export(tmp_path, capsys):
    export = tmp_path / "sweep.json"
    rc = main(["faults", "--small", "--mode", "nan", "--rates", "0.5",
               "--kernels", "1", "--duration-us", "60",
               "--export", str(export)])
    assert rc == 0
    import json
    payload = json.loads(export.read_text())
    assert payload["preset"] == 0.10
    assert payload["cells"]
