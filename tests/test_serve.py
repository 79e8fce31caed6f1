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
from repro.serve import (CLOSED, HALF_OPEN, OPEN, QUARANTINED, BreakerConfig,
                         CircuitBreaker, IngestConfig, OnlineCalibrator,
                         OnlineConfig, RequestQueue, ServeConfig,
                         ServeRequest, ServingRuntime, Supervisor,
                         SupervisorConfig, TelemetrySample, WindowAssembler)
from repro.store import ArtifactStore


# ---------------------------------------------------------------------------
# Circuit breaker: scripted transitions
# ---------------------------------------------------------------------------

def _breaker(**kwargs):
    defaults = dict(failure_threshold=2, latency_budget_s=50e-6,
                    open_ticks=4, probe_successes=2)
    defaults.update(kwargs)
    return CircuitBreaker(BreakerConfig(**defaults))


def test_breaker_trips_after_consecutive_failures():
    breaker = _breaker()
    for tick in range(2):
        assert breaker.allow(tick)
        breaker.record_failure(tick)
    assert breaker.state == OPEN
    assert breaker.counters["breaker_trips"] == 1
    assert not breaker.allow(2)
    assert breaker.counters["breaker_short_circuits"] == 1


def test_breaker_probes_after_open_window_and_closes():
    breaker = _breaker()
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


def test_breaker_probe_failure_reopens():
    breaker = _breaker()
    for tick in range(2):
        breaker.allow(tick)
        breaker.record_failure(tick)
    assert breaker.allow(10)
    breaker.record_failure(10)
    assert breaker.state == OPEN
    assert breaker.counters["breaker_reopens"] == 1
    assert not breaker.allow(11)


def test_breaker_slow_success_counts_as_failure():
    breaker = _breaker(failure_threshold=1)
    assert breaker.allow(0)
    breaker.record_success(0, 1.0)  # way over the 50us budget
    assert breaker.state == OPEN
    assert breaker.counters["breaker_slow_successes"] == 1


def test_breaker_rejects_unadmitted_outcome():
    breaker = _breaker()
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
    fewer than ``open_ticks`` ago.  Liveness: once the open window has
    elapsed (and from HALF_OPEN) the breaker always re-probes — no
    sequence of outcomes can wedge it permanently open.
    """
    config = BreakerConfig(failure_threshold=2, latency_budget_s=50e-6,
                           open_ticks=5, probe_successes=2)
    breaker = CircuitBreaker(config)
    now = 0
    for advance, fail in steps:
        now += advance
        state_before = breaker.state
        opened_before = breaker._opened_at
        allowed = breaker.allow(now)
        if state_before == OPEN and now - opened_before < config.open_ticks:
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
    assembler = WindowAssembler(IngestConfig())
    assembler.offer(_sample(0, 1, 0), 0)  # early: future of the cursor
    assembler.offer(_sample(0, 0, 0), 0)
    assembler.offer(_sample(0, 0, 0), 0)  # duplicate
    delivered = assembler.pop_ready(0)
    assert [s.seq for s in delivered] == [0, 1]
    counters = assembler.observability_counters()
    assert counters["ingest_duplicates"] == 1
    assert counters["ingest_reordered"] == 1


def test_assembler_stalls_then_skips_confirmed_gap():
    config = IngestConfig(max_lag_ticks=3)
    assembler = WindowAssembler(config)
    assembler.offer(_sample(0, 0, 0), 0)
    assert [s.seq for s in assembler.pop_ready(0)] == [0]
    # seq 1 never arrives; 2 and 3 do.
    assembler.offer(_sample(0, 2, 1), 1)
    assembler.offer(_sample(0, 3, 1), 1)
    assert assembler.pop_ready(1) == []  # stalled, waiting for seq 1
    assert assembler.pop_ready(2) == []
    delivered = assembler.pop_ready(1 + config.max_lag_ticks)
    assert [s.seq for s in delivered] == [2, 3]
    assert assembler.observability_counters()["ingest_gap_skips"] == 1


def test_assembler_drops_stale_samples():
    config = IngestConfig(staleness_ticks=4)
    assembler = WindowAssembler(config)
    assembler.offer(_sample(0, 0, 0), 10)  # 10 ticks old on arrival
    assert assembler.pop_ready(10) == []
    assert assembler.observability_counters()["ingest_stale_drops"] == 1


def test_assembler_bounds_the_reorder_buffer():
    config = IngestConfig(max_pending=2, max_lag_ticks=1,
                          staleness_ticks=100)
    assembler = WindowAssembler(config)
    for seq in (5, 6, 7):  # cursor at 0: everything buffers
        assembler.offer(_sample(0, seq, 0), 0)
    assert assembler.observability_counters()[
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
    assert queue.observability_counters()["serve_shed_drain"] == 3


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def _supervisor(num_workers=2, **kwargs):
    defaults = dict(backoff_base_ticks=2, backoff_cap_ticks=8,
                    liveness_ticks=3, pin_after=2, quarantine_after=4)
    defaults.update(kwargs)
    builds = []

    def build_stack(worker_id):
        builds.append(worker_id)
        return {"id": worker_id}, len(builds) > num_workers

    return Supervisor(num_workers, build_stack,
                      SupervisorConfig(**defaults)), builds


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
    counters = supervisor.observability_counters()
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
    counters = supervisor.observability_counters()
    assert counters["supervisor_pinned"] == 1
    assert counters["supervisor_quarantined"] == 1
    assert supervisor.quarantined() == 1
    assert supervisor.ready_workers() == []


def test_supervisor_liveness_probe_kills_wedged_worker():
    supervisor, _ = _supervisor()
    supervisor.dispatch(supervisor.workers[0], "req", 0, 1)
    supervisor.hang(0, 0)
    failures = []
    for tick in range(1, 6):
        _, failed = supervisor.tick(tick)
        failures.extend(failed)
    assert failures == ["req"]  # lost to the liveness kill, exactly once
    counters = supervisor.observability_counters()
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

def _online(small_pipeline, tmp_path, **kwargs):
    model = SSMDVFSModel.from_bytes(
        small_pipeline.models["base"].to_bytes())
    store = ArtifactStore(tmp_path)
    store.put("pair", model.to_bytes(), schema="ssmdvfs-pair/v1",
              mark_good=True)
    defaults = dict(update_interval=8, epochs=4, probation_windows=4,
                    tolerance=10.0, max_buffer=64)
    defaults.update(kwargs)
    online = OnlineCalibrator(model, store, "pair",
                              OnlineConfig(**defaults), seed=0)
    return online, store, model


def _feed(online, count, width):
    rng = np.random.default_rng(0)
    for _ in range(count):
        online.observe(rng.uniform(0.1, 1.0, size=width), 2, 1.0)


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
    counters = online.observability_counters()
    assert counters["online_updates_promoted"] == 1
    assert counters["online_marked_good"] == 1


def test_online_poisoned_update_is_rejected(small_pipeline, tmp_path):
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    online.poison_next_update()
    assert online.maybe_update() == "rejected"
    assert online.model is model  # the incumbent keeps serving
    assert store.latest_version("pair") == 1  # nothing was published
    counters = online.observability_counters()
    assert counters["online_poison_injected"] == 1
    assert counters["online_updates_rejected"] == 1


def test_online_drift_alarm_aborts_probation(small_pipeline, tmp_path):
    online, store, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    _feed(online, 8, width)
    assert online.maybe_update() == "promoted"
    online.drift_alarmed()
    _feed(online, 8, width)
    # The aborted promotion must never be blessed afterwards.
    assert store.last_known_good("pair") == 1
    assert online.observability_counters()[
        "online_probation_aborted"] == 1


def test_online_rejects_nonfinite_labels(small_pipeline, tmp_path):
    online, _, model = _online(small_pipeline, tmp_path)
    width = model.calibrator.extractor.width
    online.observe(np.ones(width), 2, float("nan"))
    online.observe(np.full(width, np.inf), 2, 1.0)
    counters = online.observability_counters()
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


def test_runtime_validates_scenario_config():
    with pytest.raises(ServeError):
        ServeConfig(streams=0)
    with pytest.raises(ServeError):
        ServeConfig(deadline_slack_ticks=0)
    with pytest.raises(ServeError):
        ServeConfig(batch_slack_ticks=4, deadline_slack_ticks=8)


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
