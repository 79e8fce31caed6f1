"""Property-style coverage of the guard FSM under random fault trains.

The :class:`GuardedController` state machine has a small contract that
must hold for *every* anomaly sequence, not just the hand-picked ones
in ``test_faults.py``:

* a clean streak of ``fallback_epochs + probation_epochs`` always lands
  the guard back in ACTIVE (liveness: no anomaly history can wedge it),
* in strict mode, ``trip_threshold`` consecutive anomalous epochs from
  ACTIVE always raise :class:`GuardTripped` (safety: the escape hatch
  cannot be starved),
* identical seeds replay identical state traces (campaigns must be
  reproducible down to the guard's trip epochs).

Randomized fault trains are driven through a real simulator so the
sanitization path sees genuine counter windows with injected NaNs.
"""

import numpy as np
import pytest

from repro.core.guarded import ACTIVE, FALLBACK, PROBATION, GuardedController
from repro.core.policy import StaticPolicy, policy_counters
from repro.errors import GuardTripped
from repro.gpu.counters import CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase
from repro.gpu.simulator import GPUSimulator


def _kernel(iterations=120):
    return KernelProfile("p.balanced", [balanced_phase("b", 120_000)],
                         iterations=iterations, jitter=0.05)


def _poison(record):
    """Inject a NaN into every cluster window (a guaranteed anomaly)."""
    for index, counters in enumerate(record.cluster_counters):
        vector = counters.as_vector()
        vector[0] = float("nan")
        record.cluster_counters[index] = CounterSet.from_vector(vector)
    return record


def _drive_sequence(guard, simulator, anomalies):
    """Feed one epoch per flag in ``anomalies``; returns the state trace."""
    trace = []
    for poisoned in anomalies:
        assert not simulator.finished, "kernel too short for this sequence"
        record = simulator.step_epoch()
        if record.all_finished:
            raise AssertionError("kernel too short for this sequence")
        if poisoned:
            record = _poison(record)
        decision = guard.decide(record)
        simulator.apply_decision(decision)
        trace.append(guard.state)
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_clean_streak_always_returns_to_active(small_arch, seed):
    rng = np.random.default_rng(seed)
    trip = int(rng.integers(1, 4))
    fallback_epochs = int(rng.integers(1, 6))
    probation_epochs = int(rng.integers(1, 5))
    guard = GuardedController(StaticPolicy(2), trip_threshold=trip,
                              fallback_epochs=fallback_epochs,
                              probation_epochs=probation_epochs)
    simulator = GPUSimulator(small_arch, _kernel(), seed=seed)
    guard.reset(simulator)
    # Arbitrary anomaly prefix: any reachable state is a valid start.
    prefix = list(rng.random(int(rng.integers(5, 40))) < 0.4)
    _drive_sequence(guard, simulator, prefix)
    # Liveness: one full fallback window plus one clean probation always
    # restores ACTIVE, regardless of the prefix.
    clean = [False] * (fallback_epochs + probation_epochs)
    trace = _drive_sequence(guard, simulator, clean)
    assert trace[-1] == ACTIVE
    # And it stays there while epochs remain clean.
    trace = _drive_sequence(guard, simulator, [False] * 3)
    assert trace == [ACTIVE] * 3


@pytest.mark.parametrize("seed", range(8))
def test_strict_mode_trip_always_raises(small_arch, seed):
    rng = np.random.default_rng(100 + seed)
    trip = int(rng.integers(1, 5))
    guard = GuardedController(StaticPolicy(2), trip_threshold=trip,
                              strict=True)
    simulator = GPUSimulator(small_arch, _kernel(), seed=seed)
    guard.reset(simulator)
    # Clean preamble cannot pre-arm the streak counter.
    _drive_sequence(guard, simulator, [False] * int(rng.integers(0, 6)))
    with pytest.raises(GuardTripped):
        _drive_sequence(guard, simulator, [True] * trip)
    assert policy_counters(guard)["guard_trips"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_random_fault_trains_replay_identically(small_arch, seed):
    def run():
        rng = np.random.default_rng(200 + seed)
        guard = GuardedController(StaticPolicy(2), trip_threshold=2,
                                  fallback_epochs=3, probation_epochs=2)
        simulator = GPUSimulator(small_arch, _kernel(), seed=seed)
        guard.reset(simulator)
        anomalies = list(rng.random(60) < 0.3)
        trace = _drive_sequence(guard, simulator, anomalies)
        return trace, dict(policy_counters(guard))

    first_trace, first_counters = run()
    second_trace, second_counters = run()
    assert first_trace == second_trace
    assert first_counters == second_counters
    # Sanity: the random train actually exercised the machine.
    assert FALLBACK in first_trace


@pytest.mark.parametrize("seed", range(6))
def test_trip_counter_matches_active_to_fallback_transitions(small_arch,
                                                             seed):
    rng = np.random.default_rng(300 + seed)
    guard = GuardedController(StaticPolicy(2), trip_threshold=2,
                              fallback_epochs=3, probation_epochs=2)
    simulator = GPUSimulator(small_arch, _kernel(), seed=seed)
    guard.reset(simulator)
    anomalies = list(rng.random(70) < 0.25)
    pairs = []
    trace = []
    for poisoned in anomalies:
        record = simulator.step_epoch()
        if record.all_finished:
            break
        before = guard.state
        decision = guard.decide(record if not poisoned
                                else _poison(record))
        simulator.apply_decision(decision)
        pairs.append((before, guard.state))
        trace.append(guard.state)
    counters = policy_counters(guard)
    # A trip is exactly an ACTIVE -> FALLBACK step; probation relapses
    # can land FALLBACK -> FALLBACK in one epoch (probation entry and
    # failure in the same decide), so they only bound the transitions.
    active_to_fallback = sum(1 for before, after in pairs
                             if before == ACTIVE and after == FALLBACK)
    probation_to_fallback = sum(1 for before, after in pairs
                                if before == PROBATION
                                and after == FALLBACK)
    assert counters.get("guard_trips", 0) == active_to_fallback
    assert counters.get("guard_probation_failures",
                        0) >= probation_to_fallback
    # The guard never reports PROBATION without having served fallback.
    if PROBATION in trace:
        assert FALLBACK in trace[:trace.index(PROBATION)]
