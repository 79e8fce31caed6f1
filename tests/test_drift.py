"""Drift detection, registry rollback, and guarded self-healing."""

from collections import Counter

import numpy as np
import pytest

from repro.core.combined import PAIR_SCHEMA, SSMDVFSModel
from repro.core.controller import SSMDVFSController
from repro.core import drift
from repro.core import guarded
from repro.core.drift import DriftMonitor, RollbackManager
from repro.core.guarded import ACTIVE, FALLBACK, PROBATION, GuardedController
from repro.core.policy import StaticPolicy, policy_counters
from repro.errors import ArtifactCorrupt
from repro.evaluation.soak import perturb_model_weights
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase
from repro.gpu.simulator import GPUSimulator
from repro.store import ArtifactStore


def _kernel(iterations=40):
    return KernelProfile("d.balanced", [balanced_phase("b", 120_000)],
                         iterations=iterations, jitter=0.05)


# ---------------------------------------------------------------------------
# DriftMonitor
# ---------------------------------------------------------------------------

@pytest.fixture
def no_warmup(monkeypatch):
    monkeypatch.setattr(drift, "WARMUP_UPDATES", 0)


@pytest.fixture
def short_warmup(monkeypatch):
    monkeypatch.setattr(drift, "WARMUP_UPDATES", 2)


def test_monitor_warmup_suppresses_alarms(monkeypatch):
    monkeypatch.setattr(drift, "WARMUP_UPDATES", 10)
    monkeypatch.setattr(drift, "CUSUM_SLACK", 0.0)
    monkeypatch.setattr(drift, "CUSUM_LIMIT", 0.5)
    monitor = DriftMonitor()
    assert all(not monitor.update(1.0) for _ in range(10))
    assert monitor.update(1.0)  # first post-warmup update alarms


@pytest.mark.usefixtures("no_warmup")
def test_monitor_noise_washes_out_but_sustained_drift_alarms():
    monitor = DriftMonitor()
    # Healthy noise below the slack never accumulates.
    for _ in range(500):
        assert not monitor.update(0.1)
    assert monitor.cusum == 0.0
    # A sustained saturated gap crosses the limit within a few epochs.
    alarmed_after = None
    for epoch in range(1, 20):
        if monitor.update(1.0):
            alarmed_after = epoch
            break
    assert alarmed_after is not None and alarmed_after <= 5
    # The alarm latches: further updates do not re-alarm until reset.
    assert monitor.drifted
    assert not monitor.update(1.0)
    monitor.reset()
    assert not monitor.drifted
    assert monitor.cusum == 0.0


@pytest.mark.usefixtures("no_warmup")
def test_monitor_violation_pressure_path(monkeypatch):
    monkeypatch.setattr(drift, "VIOLATION_ALPHA", 0.3)
    monitor = DriftMonitor()
    # Gap stays clean; only the pinned-at-floor flag accumulates.
    alarmed = False
    for _ in range(20):
        if monitor.update(0.0, violation=True):
            alarmed = True
            break
    assert alarmed
    assert monitor.counters["drift_alarms"] == 1


@pytest.mark.usefixtures("no_warmup")
def test_monitor_none_gap_skips_gap_statistics():
    monitor = DriftMonitor()
    for _ in range(50):
        monitor.update(None)
    assert monitor.cusum == 0.0
    assert monitor.updates == 50


@pytest.mark.usefixtures("no_warmup")
def test_monitor_nonfinite_gap_counts_as_drift_evidence():
    monitor = DriftMonitor()
    for _ in range(10):
        monitor.update(float("nan"))
    assert monitor.counters["drift_nonfinite_gaps"] == 10
    assert monitor.cusum > 0.0


# ---------------------------------------------------------------------------
# Controller drift signal
# ---------------------------------------------------------------------------

def test_controller_exposes_raw_calibration_gap(small_arch, small_pipeline):
    model = small_pipeline.models["base"]
    controller = SSMDVFSController(model, preset=0.10)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    simulator.run(controller, keep_records=False)
    gap, violation = controller.drift_signal()
    assert gap is not None and -1.0 <= gap <= 1.0
    assert isinstance(violation, bool)


def test_perturbed_model_produces_detectable_gap(small_arch, small_pipeline):
    model = SSMDVFSModel.from_bytes(small_pipeline.models["base"].to_bytes())
    perturb_model_weights(model, 3.0, np.random.default_rng(0))
    controller = SSMDVFSController(model, preset=0.10)
    monitor = DriftMonitor()
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    controller.reset(simulator)
    alarmed = False
    while not simulator.finished:
        record = simulator.step_epoch()
        if record.all_finished:
            break
        decision = controller.decide(record)
        simulator.apply_decision(decision)
        gap, violation = controller.drift_signal()
        if monitor.update(gap, violation):
            alarmed = True
            break
    assert alarmed


# ---------------------------------------------------------------------------
# RollbackManager
# ---------------------------------------------------------------------------

def test_rollback_recovers_last_known_good(tmp_path, small_pipeline):
    model = small_pipeline.models["base"]
    store = ArtifactStore(tmp_path)
    store.put("pair", model.to_bytes(), schema=PAIR_SCHEMA, mark_good=True)
    manager = RollbackManager(
        store, "pair", lambda m: SSMDVFSController(m, preset=0.10))
    restored = manager.recover()
    assert isinstance(restored, SSMDVFSController)
    counters = manager.counters
    assert counters["rollback_successes"] == 1
    assert counters["rollback_restored_version"] == 1


def test_rollback_skips_corrupt_version_then_exhausts(tmp_path,
                                                      small_pipeline):
    model = small_pipeline.models["base"]
    store = ArtifactStore(tmp_path)
    version = store.put("pair", model.to_bytes(), schema=PAIR_SCHEMA,
                        mark_good=True)
    path = tmp_path / "pair" / f"v{version:06d}.art"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    manager = RollbackManager(
        store, "pair", lambda m: SSMDVFSController(m, preset=0.10))
    assert manager.recover() is None
    counters = manager.counters
    assert counters["rollback_corrupt_versions"] == 1
    assert counters["rollback_exhausted"] == 1


def test_rollback_rejects_nonfinite_weights(tmp_path, small_pipeline):
    model = SSMDVFSModel.from_bytes(small_pipeline.models["base"].to_bytes())
    model.decision_model.layers[0].weights[0, 0] = float("nan")
    store = ArtifactStore(tmp_path)
    store.put("pair", model.to_bytes(), schema=PAIR_SCHEMA, mark_good=True)
    manager = RollbackManager(
        store, "pair", lambda m: SSMDVFSController(m, preset=0.10))
    assert manager.recover() is None
    assert manager.counters[
        "rollback_unverified_versions"] == 1


def test_rollback_empty_store_returns_none(tmp_path):
    manager = RollbackManager(ArtifactStore(tmp_path), "pair", lambda m: m)
    assert manager.recover() is None


# ---------------------------------------------------------------------------
# Pair byte serialization
# ---------------------------------------------------------------------------

def test_pair_bytes_round_trip(small_pipeline, small_arch):
    model = small_pipeline.models["base"]
    clone = SSMDVFSModel.from_bytes(model.to_bytes())
    assert clone.feature_names == model.feature_names
    assert clone.num_levels == model.num_levels
    assert clone.metadata == model.metadata
    for a, b in zip(model.decision_model.layers,
                    clone.decision_model.layers):
        assert np.array_equal(a.weights, b.weights)
    assert clone.verify()


def test_pair_from_garbage_bytes_raises_artifact_corrupt():
    with pytest.raises(ArtifactCorrupt):
        SSMDVFSModel.from_bytes(b"not an npz archive")


def test_pair_verify_rejects_nonfinite(small_pipeline):
    model = SSMDVFSModel.from_bytes(small_pipeline.models["base"].to_bytes())
    assert model.verify()
    model.calibrator_model.layers[0].bias[0] = float("inf")
    assert not model.verify()


# ---------------------------------------------------------------------------
# Guarded self-healing
# ---------------------------------------------------------------------------

class _DriftingPolicy(StaticPolicy):
    """Static policy whose drift signal reports a saturated gap."""

    def __init__(self, level=2, gap=1.0):
        super().__init__(level)
        self.gap = gap

    def drift_signal(self):
        return self.gap, False


class _StubRollback:
    """Duck-typed RollbackManager with a scripted recovery outcome."""

    def __init__(self, replacement):
        self.replacement = replacement
        self.calls = 0
        self.counters = Counter()

    def recover(self):
        self.calls += 1
        self.counters["rollback_attempts"] += 1
        return self.replacement


def _drive(guard, simulator, epochs):
    for _ in range(epochs):
        if simulator.finished:
            break
        record = simulator.step_epoch()
        if record.all_finished:
            break
        decision = guard.decide(record)
        simulator.apply_decision(decision)


@pytest.mark.usefixtures("short_warmup")
def test_drift_alarm_hot_swaps_inner_policy(small_arch):
    replacement = StaticPolicy(1)
    rollback = _StubRollback(replacement)
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor(),
        rollback=rollback)
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 20)
    assert guard.inner is replacement
    assert guard.state in (PROBATION, ACTIVE)
    counters = policy_counters(guard)
    assert counters["drift_trips"] == 1
    assert counters["rollback_hot_swaps"] == 1
    assert rollback.calls == 1


class _AnomalousDriftingPolicy(_DriftingPolicy):
    """Drifting policy that counts a calibration anomaly per decision."""

    def decide(self, record):
        self.counters["calibration_anomalies"] += 1
        return super().decide(record)


@pytest.mark.usefixtures("short_warmup")
def test_hot_swap_keeps_the_retired_policy_counters(small_arch):
    stale = _AnomalousDriftingPolicy()
    guard = GuardedController(
        stale, drift_monitor=DriftMonitor(),
        rollback=_StubRollback(StaticPolicy(1)))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 20)
    assert guard.inner is not stale
    retired = stale.counters["calibration_anomalies"]
    assert retired > 0
    # The swapped-out pair's evidence survives the swap, exactly once.
    assert policy_counters(guard)["calibration_anomalies"] == retired


@pytest.mark.usefixtures("short_warmup")
def test_drift_with_empty_registry_pins_fallback(small_arch):
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor(),
        rollback=_StubRollback(None))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    fallback = [guard._fallback_level] * len(simulator.clusters)
    _drive(guard, simulator, 30)
    assert guard.state == FALLBACK
    assert guard._pinned_fallback
    counters = policy_counters(guard)
    assert counters["rollback_pinned_fallback"] == 1
    # Pinned means pinned: many more epochs never leave fallback.
    while not simulator.finished:
        record = simulator.step_epoch()
        if record.all_finished:
            break
        assert guard.decide(record) == fallback
    assert guard.state == FALLBACK


@pytest.mark.usefixtures("short_warmup")
def test_drift_without_rollback_manager_pins_fallback(small_arch):
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor())
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 20)
    assert guard._pinned_fallback


@pytest.mark.usefixtures("short_warmup")
def test_reset_clears_drift_state(small_arch):
    monitor = DriftMonitor()
    guard = GuardedController(_DriftingPolicy(), drift_monitor=monitor,
                              rollback=_StubRollback(None))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 20)
    assert guard._pinned_fallback
    guard.reset(GPUSimulator(small_arch, _kernel(), seed=1))
    assert not guard._pinned_fallback
    assert guard.state == ACTIVE
    assert monitor.updates == 0


@pytest.mark.usefixtures("short_warmup")
def test_healthy_policy_never_trips_drift(small_arch):
    guard = GuardedController(
        _DriftingPolicy(gap=0.02),
        drift_monitor=DriftMonitor(),
        rollback=_StubRollback(StaticPolicy(1)))
    simulator = GPUSimulator(small_arch, _kernel(), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 60)
    assert policy_counters(guard)["drift_trips"] == 0
    assert guard.state == ACTIVE


# ---------------------------------------------------------------------------
# Hot-swap cooldown (oscillation hysteresis)
# ---------------------------------------------------------------------------

class _OscillatingRollback:
    """Registry stub whose every recovery is itself a drifting pair.

    The pathological case the cooldown exists for: every swapped-in
    replacement re-alarms, so an unguarded swap loop would thrash
    through the registry forever.
    """

    def __init__(self):
        self.calls = 0
        self.counters = Counter()

    def recover(self):
        self.calls += 1
        return _DriftingPolicy()


@pytest.fixture
def short_windows(monkeypatch):
    """Two-epoch fallback and probation windows and the given hot-swap
    cooldown."""
    def patch(cooldown):
        for name, value in dict(FALLBACK_EPOCHS=2, PROBATION_EPOCHS=2,
                                SWAP_COOLDOWN_EPOCHS=cooldown).items():
            monkeypatch.setattr(guarded, name, value)
    return patch


@pytest.mark.usefixtures("short_warmup")
def test_swap_cooldown_suppresses_rollback_oscillation(small_arch,
        short_windows):
    short_windows(cooldown=500)
    rollback = _OscillatingRollback()
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor(), rollback=rollback)
    simulator = GPUSimulator(small_arch, _kernel(iterations=120), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 150)
    # Exactly one swap; every re-alarm inside the cooldown is suppressed
    # and ridden out in plain (unpinned) fallback instead.
    assert rollback.calls == 1
    counters = policy_counters(guard)
    assert counters["rollback_hot_swaps"] == 1
    assert counters["drift_swap_suppressed"] >= 1
    assert not guard._pinned_fallback


@pytest.mark.usefixtures("short_warmup")
def test_swap_allowed_again_after_cooldown_elapses(small_arch,
        short_windows):
    short_windows(cooldown=10)
    rollback = _OscillatingRollback()
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor(), rollback=rollback)
    simulator = GPUSimulator(small_arch, _kernel(iterations=120), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 150)
    # A short cooldown only spaces swaps out; it must not pin the guard
    # into never swapping again.
    assert rollback.calls >= 2


@pytest.mark.usefixtures("short_warmup")
def test_zero_cooldown_preserves_legacy_swap_behaviour(small_arch,
        short_windows):
    short_windows(cooldown=0)
    rollback = _OscillatingRollback()
    guard = GuardedController(
        _DriftingPolicy(), drift_monitor=DriftMonitor(), rollback=rollback)
    simulator = GPUSimulator(small_arch, _kernel(iterations=120), seed=0)
    guard.reset(simulator)
    _drive(guard, simulator, 150)
    assert rollback.calls >= 2
    assert "drift_swap_suppressed" not in policy_counters(guard)
