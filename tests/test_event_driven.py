"""Event-driven controller and phase-change detector."""

import numpy as np

from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.core import event_driven
from repro.core.controller import SSMDVFSController
from repro.core.event_driven import EventDrivenController, PhaseChangeDetector
from repro.core.policy import StaticPolicy


def _stationary_kernel(iterations=14):
    return KernelProfile(
        "ed.stationary",
        [memory_phase("m", 150_000, warps=48, l1_miss=0.9, l2_miss=0.9)],
        iterations=iterations, jitter=0.03)


def _swinging_kernel(iterations=7):
    return KernelProfile(
        "ed.swing",
        [compute_phase("c", 150_000, warps=16),
         memory_phase("m", 150_000, warps=48, l1_miss=0.9, l2_miss=0.9)],
        iterations=iterations, jitter=0.05)


# ---------------------------------------------------------------------------
# Detector
# ---------------------------------------------------------------------------

def test_detector_fires_when_unarmed():
    detector = PhaseChangeDetector()
    assert detector.changed(np.array([1.0, 2.0]))


def test_detector_holds_within_threshold(monkeypatch):
    monkeypatch.setattr(event_driven, "CHANGE_THRESHOLD", 0.2)
    detector = PhaseChangeDetector()
    detector.rearm(np.array([10.0, 5.0]))
    assert not detector.changed(np.array([11.0, 5.2]))  # ~10 % drift
    assert detector.changed(np.array([14.0, 5.0]))      # 40 % drift


def test_detector_reset_forgets_reference():
    detector = PhaseChangeDetector()
    detector.rearm(np.array([1.0]))
    detector.reset()
    assert detector.changed(np.array([1.0]))


def test_detector_relative_scaling(monkeypatch):
    """Drift is relative: the same absolute change matters more on a
    small feature than a large one."""
    monkeypatch.setattr(event_driven, "CHANGE_THRESHOLD", 0.5)
    detector = PhaseChangeDetector()
    detector.rearm(np.array([100.0, 0.1]))
    assert not detector.changed(np.array([101.0, 0.1]))
    assert detector.changed(np.array([100.0, 0.2]))


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

def test_skips_inferences_on_stationary_phase(small_pipeline, small_arch,
        monkeypatch):
    monkeypatch.setattr(event_driven, "REFRESH_EPOCHS", 10)
    controller = EventDrivenController(small_pipeline.model("base"), 0.10)
    simulator = GPUSimulator(small_arch, _stationary_kernel(), seed=3)
    simulator.run(controller, keep_records=False)
    assert controller.hold_count > 0
    assert controller.inference_savings > 0.3


def test_refresh_bounds_hold_streaks(small_pipeline, small_arch,
        monkeypatch):
    monkeypatch.setattr(event_driven, "REFRESH_EPOCHS", 4)
    controller = EventDrivenController(small_pipeline.model("base"), 0.10)
    simulator = GPUSimulator(small_arch, _stationary_kernel(), seed=3)
    result = simulator.run(controller, keep_records=False)
    # With refresh every 4 epochs, at least ~1/4 of epochs must infer.
    total = controller.inference_count + controller.hold_count
    assert controller.inference_count >= total // 4 - 1
    assert result.time_s > 0


def test_event_driven_matches_full_controller_quality(small_pipeline,
                                                      small_arch):
    """Skipping inferences inside stationary phases must not cost more
    than a small EDP/latency margin versus inferring every epoch."""
    model = small_pipeline.model("base")
    kernel = _swinging_kernel()
    base = GPUSimulator(small_arch, kernel, seed=5).run(
        StaticPolicy(small_arch.vf_table.default_level), keep_records=False)
    full = GPUSimulator(small_arch, kernel, seed=5).run(
        SSMDVFSController(model, 0.10), keep_records=False)
    event_controller = EventDrivenController(model, 0.10)
    event = GPUSimulator(small_arch, kernel, seed=5).run(
        event_controller, keep_records=False)
    assert event.edp / base.edp < full.edp / base.edp + 0.05
    assert event.time_s / base.time_s < full.time_s / base.time_s + 0.05


def test_event_driven_reacts_to_phase_changes(small_pipeline, small_arch,
                                              monkeypatch):
    """On a swinging kernel the detector must trigger inferences well
    beyond the refresh floor."""
    monkeypatch.setattr(event_driven, "REFRESH_EPOCHS", 50)
    controller = EventDrivenController(small_pipeline.model("base"), 0.10)
    simulator = GPUSimulator(small_arch, _swinging_kernel(), seed=6)
    simulator.run(controller, keep_records=False)
    total = controller.inference_count + controller.hold_count
    refresh_floor = total // 50 + 1
    assert controller.inference_count > refresh_floor * 2


def test_name_encodes_event_mode(small_pipeline):
    controller = EventDrivenController(small_pipeline.model("base"), 0.15)
    assert controller.name == "ssmdvfs-event-p15"
