"""Unit coverage of the always-on serving runtime components.

The circuit breaker and the full runtime get property-based coverage
(their contracts must hold for *every* outcome sequence and fault
train, not just scripted ones); ingestion,
supervision, online calibration and the full runtime get scripted
scenarios pinned to the invariants the serve-chaos harness certifies
end-to-end.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import SSMDVFSModel
from repro.errors import ServeError
from repro.faults import ServeFaultConfig, ServeFaultPlan
from repro.gpu.arch import small_test_config
from repro.serve import (CLOSED, HALF_OPEN, OPEN, QUARANTINED,
                         CircuitBreaker, OnlineCalibrator, RequestQueue,
                         ServeConfig, ServeRequest, ServingRuntime,
                         Supervisor, TelemetrySample, WindowAssembler)
from repro.serve import breaker as breaker_module
from repro.serve import ingest as ingest_module
from repro.serve import online as online_module
from repro.serve import supervisor as supervisor_module
from repro.store import ArtifactStore


# ---------------------------------------------------------------------------
# Circuit breaker: scripted transitions
# ---------------------------------------------------------------------------

@pytest.fixture
def short_breaker(monkeypatch):
    """Trips after two failures; probes after four ticks."""
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 2)
    monkeypatch.setattr(breaker_module, "OPEN_TICKS", 4)


@pytest.mark.usefixtures("short_breaker")
def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker()
    for tick in range(2):
        assert breaker.allow(tick)
        breaker.record_failure(tick)
    assert breaker.state == OPEN
    assert breaker.counters["breaker_trips"] == 1
    assert not breaker.allow(2)
    assert breaker.counters["breaker_short_circuits"] == 1


@pytest.mark.usefixtures("short_breaker")
def test_breaker_probes_after_open_window_and_closes():
    breaker = CircuitBreaker()
    for tick in range(2):
        breaker.allow(tick)
        breaker.record_failure(tick)
    # Inside the open window every call short-circuits.
    assert not breaker.allow(3)
    # Past it the breaker half-opens and admits probes.
    assert breaker.allow(5)
    assert breaker.state == HALF_OPEN
    breaker.record_success(5, 1e-6)
    assert breaker.allow(6)
    breaker.record_success(6, 1e-6)
    assert breaker.state == CLOSED
    assert breaker.counters["breaker_closes"] == 1


@pytest.mark.usefixtures("short_breaker")
def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker()
    for tick in range(2):
        breaker.allow(tick)
        breaker.record_failure(tick)
    assert breaker.allow(10)
    breaker.record_failure(10)
    assert breaker.state == OPEN
    assert breaker.counters["breaker_reopens"] == 1
    assert not breaker.allow(11)


def test_breaker_slow_success_counts_as_failure(monkeypatch):
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 1)
    breaker = CircuitBreaker()
    assert breaker.allow(0)
    breaker.record_success(0, 1.0)  # way over the 50us budget
    assert breaker.state == OPEN
    assert breaker.counters["breaker_slow_successes"] == 1


def test_breaker_rejects_unadmitted_outcome():
    breaker = CircuitBreaker()
    with pytest.raises(ServeError):
        breaker.record_failure(0)


# ---------------------------------------------------------------------------
# Circuit breaker: property-based contract
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=80))
@settings(max_examples=200, deadline=None)
def test_breaker_never_serves_open_and_always_reprobes(steps):
    """The two-sided breaker contract over arbitrary outcome sequences.

    Safety: a call is never admitted through a circuit that opened
    fewer than ``OPEN_TICKS`` ago.  Liveness: once the open window has
    elapsed (and from HALF_OPEN) the breaker always re-probes — no
    sequence of outcomes can wedge it permanently open.
    """
    breaker = CircuitBreaker()
    now = 0
    for advance, fail in steps:
        now += advance
        state_before = breaker.state
        opened_before = breaker._opened_at
        allowed = breaker.allow(now)
        if (state_before == OPEN
                and now - opened_before < breaker_module.OPEN_TICKS):
            assert not allowed, "served through an open circuit"
        else:
            # CLOSED and HALF_OPEN always admit; OPEN past its window
            # must transition to HALF_OPEN and admit the probe.
            assert allowed, "breaker wedged: refused a due probe"
            assert breaker.state in (CLOSED, HALF_OPEN)
        if allowed:
            if fail:
                breaker.record_failure(now)
            else:
                breaker.record_success(now, 1e-6)


# ---------------------------------------------------------------------------
# Window assembler
# ---------------------------------------------------------------------------

def _sample(stream, seq, tick):
    return TelemetrySample(stream_id=stream, seq=seq, sent_tick=tick,
                           payload=f"w{seq}")


def test_assembler_delivers_in_order_and_dedupes():
    assembler = WindowAssembler()
    assembler.offer(_sample(0, 1, 0), 0)  # early: future of the cursor
    assembler.offer(_sample(0, 0, 0), 0)
    assembler.offer(_sample(0, 0, 0), 0)  # duplicate
    delivered = assembler.pop_ready(0)
    assert [s.seq for s in delivered] == [0, 1]
    counters = assembler.counters
    assert counters["ingest_duplicates"] == 1
    assert counters["ingest_reordered"] == 1


def test_assembler_stalls_then_skips_confirmed_gap(monkeypatch):
    monkeypatch.setattr(ingest_module, "MAX_LAG_TICKS", 3)
    assembler = WindowAssembler()
    assembler.offer(_sample(0, 0, 0), 0)
    assert [s.seq for s in assembler.pop_ready(0)] == [0]
    # seq 1 never arrives; 2 and 3 do.
    assembler.offer(_sample(0, 2, 1), 1)
    assembler.offer(_sample(0, 3, 1), 1)
    assert assembler.pop_ready(1) == []  # stalled, waiting for seq 1
    assert assembler.pop_ready(2) == []
    delivered = assembler.pop_ready(1 + ingest_module.MAX_LAG_TICKS)
    assert [s.seq for s in delivered] == [2, 3]
    assert assembler.counters["ingest_gap_skips"] == 1


def test_assembler_drops_stale_samples(monkeypatch):
    monkeypatch.setattr(ingest_module, "STALENESS_TICKS", 4)
    assembler = WindowAssembler()
    assembler.offer(_sample(0, 0, 0), 10)  # 10 ticks old on arrival
    assert assembler.pop_ready(10) == []
    assert assembler.counters["ingest_stale_drops"] == 1


def test_assembler_bounds_the_reorder_buffer(monkeypatch):
    monkeypatch.setattr(ingest_module, "MAX_PENDING", 2)
    monkeypatch.setattr(ingest_module, "MAX_LAG_TICKS", 1)
    monkeypatch.setattr(ingest_module, "STALENESS_TICKS", 100)
    assembler = WindowAssembler()
    for seq in (5, 6, 7):  # cursor at 0: everything buffers
        assembler.offer(_sample(0, seq, 0), 0)
    assert assembler.counters[
        "ingest_buffer_evictions"] == 1
    # The oldest context (5, 6) survives; the newest (7) was refused.
    assembler.pop_ready(0)
    delivered = assembler.pop_ready(1)
    assert [s.seq for s in delivered] == [5, 6]


# ---------------------------------------------------------------------------
# Request queue
# ---------------------------------------------------------------------------

def _request(rid, *, arrival=0, deadline=50, deadline_class=False):
    return ServeRequest(request_id=rid, stream_id=0, seq=rid,
                        arrival_tick=arrival, deadline_tick=deadline,
                        deadline_class=deadline_class, payload=None)


def test_queue_overflow_sheds_youngest_batch_class_first():
    queue = RequestQueue(capacity=2)
    assert queue.offer(_request(0, deadline_class=True))
    assert queue.offer(_request(1))
    assert queue.offer(_request(2, deadline_class=True))
    assert [r.request_id for r in queue.queue] == [0, 2]
    (shed,) = queue.shed
    assert shed.request_id == 1 and shed.reason == "overflow"
    assert not shed.under_capacity


def test_queue_full_of_deadline_class_refuses_newcomer():
    queue = RequestQueue(capacity=2)
    queue.offer(_request(0, deadline_class=True))
    queue.offer(_request(1, deadline_class=True))
    assert not queue.offer(_request(2, deadline_class=True))
    (shed,) = queue.shed
    assert shed.request_id == 2
    assert not shed.under_capacity  # at capacity by definition


def test_queue_sheds_expired_requests_at_dispatch():
    queue = RequestQueue(capacity=4, service_ticks=2)
    queue.offer(_request(0, deadline=5, deadline_class=True))
    queue.offer(_request(1, deadline=50))
    # At tick 4 the remaining slack (1) cannot cover service (2).
    request = queue.pop_serviceable(4)
    assert request.request_id == 1
    (shed,) = queue.shed
    assert shed.reason == "deadline" and not shed.under_capacity


def test_queue_refuses_infeasible_request_at_the_door():
    queue = RequestQueue(capacity=4, service_ticks=3)
    assert not queue.offer(_request(0, arrival=10, deadline=11))
    (shed,) = queue.shed
    assert shed.reason == "infeasible" and shed.under_capacity


def test_queue_drain_accounts_everything():
    queue = RequestQueue(capacity=4)
    for rid in range(3):
        queue.offer(_request(rid))
    assert queue.drain() == 3
    assert len(queue.shed) == 3
    assert queue.counters["serve_shed_drain"] == 3


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def _supervisor(num_workers=2):
    builds = []

    def build_stack(worker_id):
        builds.append(worker_id)
        return {"id": worker_id}, len(builds) > num_workers

    return Supervisor(num_workers, build_stack), builds


def test_supervisor_restarts_crashed_worker_with_backoff():
    supervisor, builds = _supervisor()
    supervisor.dispatch(supervisor.workers[0], "req", 0, 1)
    lost = supervisor.crash(0, 0)
    assert lost == "req"
    assert not supervisor.workers[0].ready
    supervisor.tick(1)
    assert not supervisor.workers[0].ready  # backoff (2 ticks) pending
    supervisor.tick(2)
    assert supervisor.workers[0].ready
    counters = supervisor.counters
    assert counters["supervisor_restarts"] == 1
    assert counters["supervisor_restores"] == 1  # rebuilt from the store
    assert supervisor.recovery_ticks() == [2]


def test_supervisor_escalates_to_pin_then_quarantine():
    supervisor, _ = _supervisor(num_workers=1)
    now = 0
    for crash in range(4):
        supervisor.crash(0, now)
        worker = supervisor.workers[0]
        if crash < 3:
            while not worker.ready:
                now += 1
                supervisor.tick(now)
        now += 1
    worker = supervisor.workers[0]
    assert worker.state == QUARANTINED
    assert worker.pinned
    counters = supervisor.counters
    assert counters["supervisor_pinned"] == 1
    assert counters["supervisor_quarantined"] == 1
    assert supervisor.quarantined() == 1
    assert supervisor.ready_workers() == []


def test_supervisor_liveness_probe_kills_wedged_worker(monkeypatch):
    monkeypatch.setattr(supervisor_module, "LIVENESS_TICKS", 3)
    supervisor, _ = _supervisor()
    supervisor.dispatch(supervisor.workers[0], "req", 0, 1)
    supervisor.hang(0, 0)
    failures = []
    for tick in range(1, 6):
        _, failed = supervisor.tick(tick)
        failures.extend(failed)
    assert failures == ["req"]  # lost to the liveness kill, exactly once
    counters = supervisor.counters
    assert counters["supervisor_liveness_kills"] == 1
    assert counters["supervisor_hangs"] == 1


def test_supervisor_refuses_dispatch_to_busy_worker():
    supervisor, _ = _supervisor()
    worker = supervisor.workers[0]
    supervisor.dispatch(worker, "a", 0, 5)
    with pytest.raises(ServeError):
        supervisor.dispatch(worker, "b", 0, 5)


# ---------------------------------------------------------------------------
# Online calibration gates
# ---------------------------------------------------------------------------

@pytest.fixture
def fast_online(monkeypatch):
    """Update every 8 samples, 4 epochs, 4 probation windows, and a
    shadow tolerance loose enough that any finite candidate passes."""
    for name, value in dict(UPDATE_INTERVAL=8, EPOCHS=4, PROBATION_WINDOWS=4,
                            TOLERANCE=10.0, MAX_BUFFER=64).items():
        monkeypatch.setattr(online_module, name, value)


def _online(small_pipeline, tmp_path):
    model = SSMDVFSModel.from_bytes(
        small_pipeline.models["base"].to_bytes())
    store = ArtifactStore(tmp_path)
    store.put("pair", model.to_bytes(), schema="ssmdvfs-pair/v1",
              mark_good=True)
    online = OnlineCalibrator(model, store, "pair", seed=0)
    return online, store, model


def _feed(online, count, width):
    rng = np.random.default_rng(0)
    for _ in range(count):
        online.observe(rng.uniform(0.1, 1.0, size=width), 2, 1.0)


@pytest.mark.usefixtures("fast_online")
def test_online_update_promotes_and_blesses_after_probation(
        small_pipeline, tmp_path):
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    assert online.maybe_update() == "promoted"
    assert online.model is not model
    version = store.latest_version("pair")
    assert version == 2
    assert store.last_known_good("pair") == 1  # on probation, unblessed
    _feed(online, 4, width)  # probation windows elapse cleanly
    assert store.last_known_good("pair") == 2
    counters = online.counters
    assert counters["online_updates_promoted"] == 1
    assert counters["online_marked_good"] == 1


@pytest.mark.usefixtures("fast_online")
def test_online_poisoned_update_is_rejected(small_pipeline, tmp_path):
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    online.poison_next_update()
    assert online.maybe_update() == "rejected"
    assert online.model is model  # the incumbent keeps serving
    assert store.latest_version("pair") == 1  # nothing was published
    counters = online.counters
    assert counters["online_poison_injected"] == 1
    assert counters["online_updates_rejected"] == 1


@pytest.mark.usefixtures("fast_online")
def test_online_drift_alarm_aborts_probation(small_pipeline, tmp_path):
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    assert online.maybe_update() == "promoted"
    online.drift_alarmed()
    _feed(online, 8, width)
    # The aborted promotion must never be blessed afterwards.
    assert store.last_known_good("pair") == 1
    assert online.counters[
        "online_probation_aborted"] == 1


def _same_calibrator(pair, other):
    return all(np.array_equal(ours.weights, theirs.weights)
               and np.array_equal(ours.bias, theirs.bias)
               for ours, theirs in zip(pair.calibrator_model.layers,
                                       other.calibrator_model.layers))


@pytest.mark.usefixtures("fast_online")
def test_online_drift_alarm_restores_last_known_good_pair(small_pipeline,
                                                          tmp_path):
    """After an alarm the loop fine-tunes from, and shadow-scores
    against, the pair the workers roll back to: never the aborted
    promotion."""
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    assert online.maybe_update() == "promoted"
    aborted = online.model
    online.drift_alarmed()
    good = SSMDVFSModel.from_bytes(
        store.get("pair", store.last_known_good("pair")))
    assert "online_update" not in online.model.metadata
    assert _same_calibrator(online.model, good)
    assert not _same_calibrator(online.model, aborted)


@pytest.mark.usefixtures("fast_online")
def test_online_rejects_nonfinite_labels(small_pipeline, tmp_path):
    online, _, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    online.observe(np.ones(width), 2, float("nan"))
    online.observe(np.full(width, np.inf), 2, 1.0)
    counters = online.counters
    assert counters["online_label_rejected"] == 2
    assert "online_samples" not in counters


# ---------------------------------------------------------------------------
# Serving runtime end-to-end
# ---------------------------------------------------------------------------

CHAOTIC = ServeFaultConfig(crash_rate=1.5, hang_rate=1.0, stall_rate=1.0,
                           storm_rate=1.0, gap_rate=1.0, poison_rate=1.0,
                           burst_rate=1.0, seed=9)


def test_runtime_governor_mode_conserves_and_replays(small_arch):
    config = ServeConfig(streams=2, ticks=120, num_workers=2,
                         faults=CHAOTIC, seed=9)
    result = ServingRuntime(small_arch, config, workers=0).run()
    assert result.conserved
    assert result.submitted > 0 and result.served > 0
    assert result.counters.get("serve_invalid_decisions", 0) == 0
    assert result.unrecovered == 0
    replay = ServingRuntime(small_arch, config, workers=2).run()
    assert (json.dumps(replay.to_payload(), sort_keys=True)
            == json.dumps(result.to_payload(), sort_keys=True))


def test_runtime_ml_mode_serves_through_chaos(small_arch, small_pipeline,
                                              tmp_path):
    model = SSMDVFSModel.from_bytes(
        small_pipeline.models["base"].to_bytes())
    config = ServeConfig(streams=2, ticks=160, num_workers=2,
                         faults=CHAOTIC, seed=4)
    runtime = ServingRuntime(small_arch, config, model=model,
                             store_root=tmp_path, workers=0)
    result = runtime.run()
    assert result.policy_name == "ssmdvfs+serve"
    assert result.conserved
    assert result.counters.get("serve_invalid_decisions", 0) == 0
    assert 0 <= result.min_level_served
    assert result.max_level_served < result.num_levels
    # The initial pair was checkpointed, so any restart restores it.
    store = ArtifactStore(tmp_path)
    assert store.latest_version("serve-pair") >= 1
    restarts = result.counters.get("supervisor_restarts", 0)
    assert result.counters.get("supervisor_restores", 0) == restarts


def test_runtime_drift_alarm_aborts_online_probation(small_arch,
                                                     small_pipeline,
                                                     tmp_path):
    """A worker's drift alarm reaches the online loop, so a promotion
    still on probation when the guard alarms is never marked good."""
    model = SSMDVFSModel.from_bytes(
        small_pipeline.models["base"].to_bytes())
    config = ServeConfig(streams=2, ticks=160, seed=0)
    runtime = ServingRuntime(small_arch, config, model=model,
                             store_root=tmp_path, workers=0)
    result = runtime.run()
    counters = result.counters
    assert counters.get("drift_alarms", 0) > 0
    aborted = counters.get("online_probation_aborted", 0)
    assert aborted >= 1
    # Each promotion is marked good, aborted, or still on probation.
    pending = (counters["online_updates_promoted"] - aborted
               - counters.get("online_marked_good", 0))
    assert pending in (0, 1)
    if pending == 0:
        # Nothing on probation: the online loop holds the blessed pair.
        store = ArtifactStore(tmp_path)
        good = SSMDVFSModel.from_bytes(
            store.get("serve-pair", store.last_known_good("serve-pair")))
        assert _same_calibrator(runtime._online.model, good)


def test_runtime_validates_scenario_config():
    with pytest.raises(ServeError):
        ServeConfig(streams=0)
    with pytest.raises(ServeError):
        ServeConfig(ticks=0)
    with pytest.raises(ServeError):
        ServeConfig(queue_capacity=0)


def test_fault_plan_is_deterministic_and_validates():
    config = ServeFaultConfig(crash_rate=2.0, hang_rate=1.0, seed=5)
    plan_a = ServeFaultPlan.build(config, 2, 3, 200)
    plan_b = ServeFaultPlan.build(config, 2, 3, 200)
    assert plan_a.to_payload() == plan_b.to_payload()
    plan_a.validate_for(2, 3)
    for event in plan_a:
        assert 0 <= event.at_tick < 200


@settings(max_examples=12, deadline=None)
@given(rates=st.lists(st.floats(0.0, 2.0), min_size=7, max_size=7),
       seed=st.integers(0, 2 ** 20), ticks=st.integers(20, 80))
def test_any_serve_fault_train_conserves_and_replays(rates, seed, ticks):
    """Arbitrary fault trains: requests conserved, decisions valid, and
    a second replay of the same seed exports identical bytes."""
    faults = ServeFaultConfig(
        **dict(zip(ServeFaultConfig.RATE_FIELDS, rates)), seed=seed)
    config = ServeConfig(streams=2, ticks=ticks, faults=faults, seed=seed)
    arch = small_test_config()
    first = ServingRuntime(arch, config).run()
    second = ServingRuntime(arch, config).run()
    assert first.served + first.shed + first.failed == first.submitted
    assert first.counters.get("serve_invalid_decisions", 0) == 0
    assert (json.dumps(first.to_payload(), sort_keys=True)
            == json.dumps(second.to_payload(), sort_keys=True))
