"""Property-style coverage of the guard FSM under random fault trains.

The :class:`GuardedController` state machine has a small contract that
must hold for *every* anomaly sequence, not just the hand-picked ones
in ``test_faults.py``:

* a clean streak of ``FALLBACK_EPOCHS + PROBATION_EPOCHS`` always lands
  the guard back in ACTIVE (liveness: no anomaly history can wedge it),
* ``trip_threshold`` consecutive anomalous epochs from ACTIVE always
  trip the guard into FALLBACK exactly once (safety: the fallback
  cannot be starved),
* identical seeds replay identical state traces (campaigns must be
  reproducible down to the guard's trip epochs),
* counter sanitization fixes exactly what the readable per-cluster
  reference below fixes, counts the same ``guard_counter_*`` fixes,
  and hands a clean record back as the same object.

Randomized fault trains are driven through a real simulator so the
sanitization path sees genuine counter windows with injected NaNs.
"""

from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import guarded as guarded_module
from repro.core.guarded import ACTIVE, FALLBACK, PROBATION, GuardedController
from repro.core.policy import StaticPolicy, policy_counters
from repro.gpu.counters import NUM_COUNTERS, CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase
from repro.gpu.simulator import EpochRecord, GPUSimulator


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


@pytest.fixture
def short_windows(monkeypatch):
    """Three fallback epochs, then two probation epochs."""
    monkeypatch.setattr(guarded_module, "FALLBACK_EPOCHS", 3)
    monkeypatch.setattr(guarded_module, "PROBATION_EPOCHS", 2)


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
def test_clean_streak_always_returns_to_active(small_arch, seed,
                                               monkeypatch):
    rng = np.random.default_rng(seed)
    trip = int(rng.integers(1, 4))
    fallback_epochs = int(rng.integers(1, 6))
    probation_epochs = int(rng.integers(1, 5))
    monkeypatch.setattr(guarded_module, "FALLBACK_EPOCHS", fallback_epochs)
    monkeypatch.setattr(guarded_module, "PROBATION_EPOCHS", probation_epochs)
    guard = GuardedController(StaticPolicy(2), trip_threshold=trip)
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
def test_trip_threshold_anomalies_always_fall_back(small_arch, seed):
    rng = np.random.default_rng(100 + seed)
    trip = int(rng.integers(1, 5))
    guard = GuardedController(StaticPolicy(2), trip_threshold=trip)
    simulator = GPUSimulator(small_arch, _kernel(), seed=seed)
    guard.reset(simulator)
    # Clean preamble cannot pre-arm the streak counter.
    _drive_sequence(guard, simulator, [False] * int(rng.integers(0, 6)))
    trace = _drive_sequence(guard, simulator, [True] * trip)
    assert trace == [ACTIVE] * (trip - 1) + [FALLBACK]
    assert policy_counters(guard)["guard_trips"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_random_fault_trains_replay_identically(small_arch, seed,
                                               short_windows):
    def run():
        rng = np.random.default_rng(200 + seed)
        guard = GuardedController(StaticPolicy(2), trip_threshold=2)
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
def test_trip_counter_matches_active_to_fallback_transitions(
        small_arch, seed, short_windows):
    rng = np.random.default_rng(300 + seed)
    guard = GuardedController(StaticPolicy(2), trip_threshold=2)
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


def _reference_sanitize(vector, finished, max_value, counters):
    """One cluster's window, fixed the readable way (the spec).

    Returns the sanitized copy and its anomaly count; fix counts land
    in ``counters`` under the guard's ``guard_counter_*`` names.
    """
    vector = vector.copy()
    anomalies = 0
    nonfinite = ~np.isfinite(vector)
    bad = int(nonfinite.sum())
    if bad:
        vector[nonfinite] = 0.0
        counters["guard_counter_nonfinite"] += bad
        anomalies += bad
    negative = vector < 0.0
    bad = int(negative.sum())
    if bad:
        vector[negative] = 0.0
        counters["guard_counter_negative"] += bad
        anomalies += bad
    huge = vector > max_value
    bad = int(huge.sum())
    if bad:
        vector[huge] = max_value
        counters["guard_counter_clamped"] += bad
        anomalies += bad
    # Every real epoch reports nonzero static power; an all-zero
    # window from a still-running cluster is a dropped sensor sample.
    if not finished and not np.any(vector):
        counters["guard_counter_dropout"] += 1
        anomalies += 1
    return vector, anomalies


@st.composite
def _counter_epochs(draw):
    """A counter matrix with injected faults, finished flags and a cap."""
    clusters = draw(st.integers(1, 24))
    max_value = draw(st.sampled_from([1e15, 1e3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.random((clusters, NUM_COUNTERS)) * 10.0 ** rng.uniform(
        -3.0, 5.0, (clusters, NUM_COUNTERS))
    specials = (float("nan"), float("inf"), -float("inf"), -1.0, -1e300,
                -0.0, 0.0, max_value, max_value * 4.0)
    rate = draw(st.sampled_from([0.0, 0.005, 0.05, 0.5]))
    faulty = rng.random(matrix.shape) < rate
    matrix[faulty] = rng.choice(specials, int(faulty.sum()))
    zero_rows = draw(st.lists(st.booleans(), min_size=clusters,
                              max_size=clusters))
    matrix[np.array(zero_rows)] = draw(st.sampled_from([0.0, -0.0]))
    finished = draw(st.lists(st.booleans(), min_size=clusters,
                             max_size=clusters))
    return matrix, finished, max_value


@settings(max_examples=150, deadline=None)
@given(_counter_epochs())
def test_sanitizer_matches_per_cluster_reference(epoch):
    matrix, finished, max_value = epoch
    guard = GuardedController(StaticPolicy(0))
    guard.simulator = SimpleNamespace(
        clusters=[SimpleNamespace(finished=flag) for flag in finished])
    guard.counters["guard_trips"] = 1
    cluster_counters = [CounterSet.from_vector(row.copy()) for row in matrix]
    record = EpochRecord(index=4, start_time_s=1e-5, duration_s=1e-5,
                         levels=[2] * len(finished),
                         counters=CounterSet(),
                         cluster_counters=cluster_counters,
                         instructions=1e4, cluster_energy_j=1e-6,
                         uncore_energy_j=1e-7, all_finished=all(finished),
                         finish_time_s=0.0)
    before = matrix.tobytes()

    expected = Counter()
    vectors, total = [], 0
    for row, flag in zip(matrix, finished):
        vector, bad = _reference_sanitize(row, flag, max_value, expected)
        vectors.append(vector)
        total += bad
    with mock.patch.object(guarded_module, "MAX_COUNTER_VALUE", max_value):
        sanitized, anomalies = guard._sanitize_record(record)

    assert anomalies == total
    assert guard.counters == Counter(guard_trips=1, **expected)
    assert CounterSet.stack(record.cluster_counters).tobytes() == before
    if total == 0:
        assert sanitized is record
        return
    assert sanitized is not record
    assert [c.as_vector().tobytes() for c in sanitized.cluster_counters] \
        == [vector.tobytes() for vector in vectors]
    assert sanitized.counters.as_vector().tobytes() == np.mean(
        vectors, axis=0).tobytes()
    for name in ("index", "start_time_s", "duration_s", "levels",
                 "instructions", "cluster_energy_j", "uncore_energy_j",
                 "all_finished", "finish_time_s"):
        assert getattr(sanitized, name) == getattr(record, name)
