"""Fleet resilience: node faults, health FSM, migration, shedding, chaos.

The replay invariants under test:

* **Conservation** — for *any* seeded fault train, every submitted job
  is either completed or shed, exactly once (hypothesis property).
* **Determinism** — the same seed yields a byte-identical
  ``FleetResult`` payload on every replay, faults included.
* **Migration semantics** — crash/hang preemption keeps checkpointed
  progress, loses the remainder, pays the restart overhead, and the
  job finishes elsewhere.
* **Shed discipline** — admission control sheds throughput jobs whose
  deadline became unmeetable; latency jobs are never admission-shed.

Fast by construction: most tests drive the serial discrete-event
replay directly with fabricated phase-1 outcomes (the replay is a pure
function of them), so no GPU simulation runs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import FleetError, FleetFaultError
from repro.evaluation.fleet_chaos import (ChaosTrial, FleetChaosConfig,
                                          _check_trial, run_fleet_chaos)
from repro.faults import (NODE_FAULT_KINDS, NodeFaultConfig, NodeFaultEvent,
                          NodeFaultPlan)
from repro.fleet import (LATENCY, THROUGHPUT, AdmissionConfig,
                         ClusterScheduler, Job, NodeTracker, PendingJobQueue,
                         ShedJob, policy_factory)
from repro.fleet import scheduler as scheduler_module
from repro.fleet.metrics import FleetResult
from repro.store import write_json

pytestmark = pytest.mark.timeout(120)

US = 1e-6


def _job(job_id, arrival_s=0.0, deadline_s=1.0, expected_s=100 * US,
         job_class=LATENCY):
    return Job(job_id=job_id, name=f"j{job_id}", job_class=job_class,
               kernel=None, arrival_s=arrival_s, expected_s=expected_s,
               deadline_s=deadline_s)


def _service(jobs, service_s=100 * US, energy_j=1e-3, counters=None):
    return {job.job_id: (service_s, energy_j, 10, 3.0, dict(counters or {}))
            for job in jobs}


def _scheduler(arch, nodes, **kwargs):
    return ClusterScheduler(arch, policy_factory("governor"),
                            num_nodes=nodes, **kwargs)


def _plan(*events):
    return NodeFaultPlan(list(events))


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

def test_node_fault_plan_is_deterministic_and_validated():
    config = NodeFaultConfig(crash_rate=0.5, hang_rate=0.5,
                             thermal_rate=0.5, storm_rate=0.5, seed=9)
    plan = NodeFaultPlan.build(config, 4, 1e-3)
    again = NodeFaultPlan.build(config, 4, 1e-3)
    assert plan.to_payload() == again.to_payload()
    assert set(plan.counts_by_kind()) <= set(NODE_FAULT_KINDS)
    assert list(plan) == sorted(plan, key=lambda e: e.at_s)
    with pytest.raises(FleetFaultError):
        plan_bad = _plan(NodeFaultEvent(0.0, 99, "crash", 1e-4))
        plan_bad.validate_for(4)


@pytest.mark.parametrize("bad", [
    dict(kind="meteor"), dict(at_s=-1.0), dict(duration_s=0.0),
    dict(node_id=-1), dict(magnitude=0.0),
])
def test_node_fault_event_validation(bad):
    good = dict(at_s=0.0, node_id=0, kind="crash", duration_s=1e-4,
                magnitude=1.0)
    with pytest.raises(FleetFaultError):
        NodeFaultEvent(**{**good, **bad})


def test_node_fault_config_validation():
    with pytest.raises(FleetFaultError):
        NodeFaultConfig(crash_rate=-0.1)
    assert not NodeFaultConfig().any_active
    assert NodeFaultConfig(hang_rate=0.1).any_active


# ---------------------------------------------------------------------------
# Crash / hang migration
# ---------------------------------------------------------------------------

def test_crash_preempts_checkpoints_and_migrates(small_arch):
    jobs = [_job(0)]
    plan = _plan(NodeFaultEvent(50 * US, 0, "crash", 200 * US))
    scheduler = _scheduler(small_arch, 2, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "crash")
    outcome = result.outcomes[0]
    # 50us executed, checkpoint floor keeps 40us, 10us lost; resumed on
    # node 1 at the crash instant with 5us restart overhead.
    assert outcome.migrations == 1
    assert outcome.node_id == 1
    assert outcome.lost_work_s == pytest.approx(10 * US)
    assert outcome.overhead_s == pytest.approx(5 * US)
    assert outcome.finish_s == pytest.approx(50 * US + 5 * US + 60 * US)
    assert outcome.service_s == pytest.approx(100 * US)
    assert result.counters["migration_preemptions"] == 1
    assert result.counters["migration_requeues"] == 1
    assert result.counters["node_quarantine_crash"] == 1
    # The queue's high-water marks and requeue tally reach the export.
    assert (result.counters["queue_peak_depth"],
            result.counters["queue_peak_depth_total"],
            result.counters["queue_requeues"]) == (1, 1, 1)
    assert result.node_summaries[0]["preemptions"] == 1
    assert result.conserved


def test_crash_energy_is_conserved_across_nodes(small_arch):
    jobs = [_job(0)]
    plan = _plan(NodeFaultEvent(50 * US, 0, "crash", 200 * US))
    scheduler = _scheduler(small_arch, 2, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "crash")
    node_total = sum(node["energy_j"] for node in result.node_summaries)
    assert node_total == pytest.approx(result.outcomes[0].energy_j)
    # The outcome's energy covers the lost work and the restart too.
    rate = 1e-3 / (100 * US)
    assert result.outcomes[0].energy_j == pytest.approx(
        1e-3 + rate * (10 * US + 5 * US))


def test_hang_freezes_completion_until_detection(small_arch):
    jobs = [_job(0)]
    plan = _plan(NodeFaultEvent(30 * US, 0, "hang", 100 * US))
    scheduler = _scheduler(small_arch, 2, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "hang")
    outcome = result.outcomes[0]
    # Progress froze at 30us (20us checkpointed), detection fired 50us
    # later; the job resumed on node 1: 80us + 5us overhead + 80us left.
    assert outcome.migrations == 1
    assert outcome.lost_work_s == pytest.approx(10 * US)
    assert outcome.finish_s == pytest.approx(80 * US + 5 * US + 80 * US)
    assert result.counters["fleet_hang_detections"] == 1
    assert result.counters["node_quarantine_hang"] == 1
    assert result.conserved


def test_hung_idle_node_is_quarantined_without_preemption(small_arch):
    jobs = [_job(0, arrival_s=200 * US)]
    plan = _plan(NodeFaultEvent(10 * US, 0, "hang", 50 * US))
    scheduler = _scheduler(small_arch, 1, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "idle-hang")
    # Detection at 60us, outage 50us -> recovered at 110us, well before
    # the job arrives; nothing was preempted.
    assert result.counters["node_quarantine_hang"] == 1
    assert "migration_preemptions" not in result.counters
    assert result.outcomes[0].migrations == 0
    assert result.outcomes[0].start_s == pytest.approx(200 * US)


def test_storm_stretches_jobs_dispatched_into_it(small_arch):
    jobs = [_job(0, arrival_s=10 * US)]
    plan = _plan(NodeFaultEvent(1 * US, 0, "sensor_storm", 300 * US,
                                magnitude=1.5))
    scheduler = _scheduler(small_arch, 1, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "storm")
    outcome = result.outcomes[0]
    assert outcome.finish_s == pytest.approx(10 * US + 150 * US)
    assert outcome.service_s == pytest.approx(100 * US)
    assert result.counters["node_degrade_storm"] == 1


def test_storm_on_degraded_node_escalates_to_quarantine(small_arch):
    jobs = [_job(0, arrival_s=400 * US)]
    plan = _plan(NodeFaultEvent(1 * US, 0, "sensor_storm", 300 * US,
                                magnitude=1.5),
                 NodeFaultEvent(50 * US, 0, "sensor_storm", 300 * US,
                                magnitude=1.5))
    scheduler = _scheduler(small_arch, 1, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "escalate")
    assert result.counters["node_quarantine_storm_escalation"] == 1
    assert result.conserved


def test_thermal_runaway_deprioritizes_node(small_arch):
    jobs = [_job(0, arrival_s=10 * US)]
    plan = _plan(NodeFaultEvent(1 * US, 0, "thermal", 500 * US,
                                magnitude=45.0))
    scheduler = _scheduler(small_arch, 2, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "thermal")
    # The degraded node 0 ranks below healthy node 1 despite the id
    # tie-break, so the job lands on node 1.
    assert result.outcomes[0].node_id == 1
    assert result.counters["node_degrade_thermal"] == 1
    assert result.node_summaries[0]["peak_temperature_c"] > \
        result.node_summaries[1]["peak_temperature_c"]


# ---------------------------------------------------------------------------
# Admission control + shedding
# ---------------------------------------------------------------------------

def test_admission_sheds_unmeetable_throughput_only(small_arch):
    jobs = [_job(0, deadline_s=200 * US, job_class=LATENCY),
            _job(1, deadline_s=30 * US, job_class=THROUGHPUT)]
    scheduler = _scheduler(small_arch, 1,
                           admission=AdmissionConfig(enabled=True))
    result = scheduler._replay(jobs, _service(jobs), "shed")
    assert [o.job_id for o in result.outcomes] == [0]
    assert [s.job_id for s in result.shed] == [1]
    assert result.shed[0].reason == "unmeetable"
    assert result.shed[0].job_class == THROUGHPUT
    assert result.counters["shed_unmeetable"] == 1
    assert result.conserved
    # Shed jobs are not SLO violations.
    assert result.violations() == 0
    assert result.shed_rate() == pytest.approx(0.5)


def test_unmeetable_latency_jobs_run_and_violate_instead(small_arch):
    jobs = [_job(0, deadline_s=30 * US, job_class=LATENCY)]
    scheduler = _scheduler(small_arch, 1,
                           admission=AdmissionConfig(enabled=True))
    result = scheduler._replay(jobs, _service(jobs), "latency")
    assert not result.shed
    assert result.violations() == 1


def test_admission_disabled_serves_everything(small_arch):
    jobs = [_job(0, deadline_s=30 * US, job_class=THROUGHPUT)]
    scheduler = _scheduler(small_arch, 1)
    result = scheduler._replay(jobs, _service(jobs), "no-admission")
    assert not result.shed and len(result.outcomes) == 1


def test_migration_budget_exhaustion_sheds(small_arch, monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_MIGRATIONS", 0)
    jobs = [_job(0)]
    plan = _plan(NodeFaultEvent(50 * US, 0, "crash", 200 * US))
    scheduler = _scheduler(small_arch, 2, fault_plan=plan)
    result = scheduler._replay(jobs, _service(jobs), "budget")
    assert not result.outcomes
    assert result.shed[0].reason == "migration_limit"
    assert result.conserved
    # Empty-outcome results still aggregate and export.
    assert result.makespan_s == 0.0
    assert result.mean_utilization() == 0.0
    payload = result.to_payload()
    assert payload["shed_jobs"] == 1 and payload["conserved"] is True


def test_shed_job_rejects_unknown_reason():
    with pytest.raises(FleetError):
        ShedJob(job_id=0, name="j0", job_class=LATENCY, arrival_s=0.0,
                deadline_s=1.0, expected_s=1e-4, shed_s=0.0,
                reason="gremlins")


# ---------------------------------------------------------------------------
# Queue requeue accounting (migrated jobs are not fresh demand)
# ---------------------------------------------------------------------------

def test_requeued_jobs_do_not_inflate_peak_depth():
    queue = PendingJobQueue()
    for job_id in range(3):
        queue.push(_job(job_id))
    victim = queue.pop()
    queue.push(victim, requeued=True)
    queue.push(_job(7))
    assert queue.peak_depth == 3
    assert queue.peak_depth_total == 4
    assert queue.requeues == 1


def test_requeued_job_keeps_original_submit_time_and_deadline():
    queue = PendingJobQueue()
    job = _job(0, arrival_s=5 * US, deadline_s=40 * US)
    queue.push(job)
    queue.push(queue.pop(), requeued=True)
    requeued = queue.pop()
    assert requeued.arrival_s == job.arrival_s
    assert requeued.deadline_s == job.deadline_s


# ---------------------------------------------------------------------------
# Health FSM
# ---------------------------------------------------------------------------

def test_deadline_miss_streak_degrades_and_clean_streak_heals():
    tracker = NodeTracker(1)
    node = tracker.nodes[0]
    for _ in range(2):
        tracker.note_deadline_miss(node)
    assert node.health == "healthy"
    tracker.note_deadline_miss(node)
    assert node.health == "degraded"
    tracker.note_clean_completion(node, 1.0)
    assert node.health == "degraded"
    tracker.note_clean_completion(node, 1.0)
    assert node.health == "healthy"
    assert tracker.counters["node_degrade_deadline_misses"] == 1


def test_quarantine_drains_placement_and_probation_readmits():
    tracker = NodeTracker(2)
    node = tracker.nodes[0]
    tracker.quarantine(node, 0.0, 100 * US, "crash")
    assert not node.placeable
    assert tracker.least_contended(0.0).node_id == 1
    assert not tracker.end_outage(node, 50 * US)  # outage still open
    assert tracker.end_outage(node, 100 * US)
    assert node.health == "recovering"
    tracker.note_clean_completion(node, 110 * US)
    tracker.note_clean_completion(node, 120 * US)
    assert node.health == "healthy"
    assert tracker.counters["node_readmissions"] == 1


def test_all_nodes_quarantined_raises():
    tracker = NodeTracker(1)
    tracker.quarantine(tracker.nodes[0], 0.0, 1.0, "crash")
    with pytest.raises(FleetError):
        tracker.least_contended(0.0)
    assert tracker.idle_nodes(0.0) == []


def test_quarantined_node_rejects_assignment():
    tracker = NodeTracker(1)
    node = tracker.nodes[0]
    tracker.quarantine(node, 0.0, 1.0, "crash")
    with pytest.raises(FleetError):
        tracker.assign(node, 2.0, 3.0)


# ---------------------------------------------------------------------------
# Policy counters surfaced at fleet scope
# ---------------------------------------------------------------------------

def test_guard_counters_surface_in_result_and_nodes(small_arch):
    jobs = [_job(0)]
    counters = {"guard_trips": 2, "drift_alarms": 1, "loop_iterations": 9}
    scheduler = _scheduler(small_arch, 1)
    result = scheduler._replay(jobs, _service(jobs, counters=counters),
                               "guard")
    assert result.policy_counters == {"guard_trips": 2, "drift_alarms": 1}
    assert result.node_summaries[0]["policy_counters"] == {
        "drift_alarms": 1, "guard_trips": 2}
    payload = result.to_payload()
    assert payload["policy_counters"]["guard_trips"] == 2


# ---------------------------------------------------------------------------
# Property: conservation + determinism under arbitrary fault trains
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_fault_train_conserves_jobs_and_replays_identically(
        small_arch, data):
    seed = data.draw(st.integers(0, 2 ** 20), label="seed")
    num_jobs = data.draw(st.integers(1, 10), label="jobs")
    num_nodes = data.draw(st.integers(1, 4), label="nodes")
    rates = [data.draw(st.floats(0.0, 1.5), label=kind)
             for kind in NODE_FAULT_KINDS]
    admission_on = data.draw(st.booleans(), label="admission")

    rng = np.random.default_rng(seed)
    jobs = []
    for job_id in range(num_jobs):
        arrival = float(rng.uniform(0.0, 500 * US))
        expected = float(rng.uniform(20 * US, 200 * US))
        jobs.append(Job(
            job_id=job_id, name=f"j{job_id}",
            job_class=LATENCY if rng.random() < 0.5 else THROUGHPUT,
            kernel=None, arrival_s=arrival, expected_s=expected,
            deadline_s=arrival + expected * float(rng.uniform(1.2, 4.0))))
    jobs.sort(key=lambda j: (j.arrival_s, j.job_id))
    service = {
        job.job_id: (float(rng.uniform(10 * US, 250 * US)),
                     float(rng.uniform(1e-4, 1e-2)),
                     int(rng.integers(1, 50)), 3.0,
                     {"guard_trips": int(rng.integers(0, 3))})
        for job in jobs}
    plan = NodeFaultPlan.build(
        NodeFaultConfig(crash_rate=rates[0], hang_rate=rates[1],
                        thermal_rate=rates[2], storm_rate=rates[3],
                        seed=seed),
        num_nodes, 1e-3)

    def replay():
        scheduler = _scheduler(
            small_arch, num_nodes, seed=seed, fault_plan=plan,
            admission=AdmissionConfig(enabled=admission_on))
        return scheduler._replay(jobs, service, "property")

    first, second = replay(), replay()

    completed = [o.job_id for o in first.outcomes]
    shed = [s.job_id for s in first.shed]
    assert sorted(completed + shed) == sorted(j.job_id for j in jobs)
    assert first.conserved
    for outcome in first.outcomes:
        assert outcome.finish_s >= outcome.start_s >= outcome.arrival_s
        assert outcome.queued_s >= 0.0
        assert outcome.lost_work_s >= 0.0 and outcome.overhead_s >= 0.0
    for shed_job in first.shed:
        if shed_job.reason == "unmeetable":
            assert shed_job.job_class == THROUGHPUT
    assert json.dumps(first.to_payload(), sort_keys=True) == \
        json.dumps(second.to_payload(), sort_keys=True)


# ---------------------------------------------------------------------------
# End-to-end: faulted run is byte-stable across worker counts
# ---------------------------------------------------------------------------

@pytest.mark.timeout(300)
def test_faulted_run_is_byte_identical_across_worker_counts(small_arch):
    from repro.fleet import TraceConfig, build_trace
    jobs = build_trace(small_arch, TraceConfig(trace="burst", jobs=6,
                                               nodes=2, load=1.2, seed=4))
    horizon = max(j.arrival_s for j in jobs) + 1e-3
    plan = NodeFaultPlan.build(
        NodeFaultConfig(crash_rate=0.8, hang_rate=0.5, seed=6), 2, horizon)
    payloads = []
    for workers in (1, 2):
        scheduler = _scheduler(small_arch, 2, seed=11, workers=workers,
                               fault_plan=plan,
                               admission=AdmissionConfig(enabled=True))
        result = scheduler.run(jobs, trace_name="burst")
        payloads.append(json.dumps(result.to_payload(), sort_keys=True))
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# The fleet-chaos harness
# ---------------------------------------------------------------------------

def test_fleet_chaos_config_validation():
    with pytest.raises(FleetError):
        FleetChaosConfig(trials=0)
    with pytest.raises(FleetError):
        FleetChaosConfig(determinism_trials=5, trials=2)
    with pytest.raises(FleetError):
        FleetChaosConfig(faults=NodeFaultConfig())  # nothing active


@pytest.mark.timeout(300)
def test_fleet_chaos_harness_passes_and_exports(small_arch, tmp_path):
    config = FleetChaosConfig(jobs=8, nodes=3, trials=2,
                              determinism_trials=1, seed=5,
                              crash_write_trials=4)
    result = run_fleet_chaos(small_arch, policy_factory("governor"),
                             config, policy_name="governor",
                             store_root=tmp_path / "store")
    assert result.passed, result.violations
    assert len(result.trials) == 2
    assert result.trials[0].byte_stable is True
    assert result.trials[1].byte_stable is None
    assert all(t.conserved for t in result.trials)
    assert result.crash_torn_reads == 0 and result.crash_trials > 0
    assert result.counters["fleet_chaos_trials"] == 2
    path = write_json(tmp_path / "chaos.json", result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert "fleet_fault_crash" in payload["counters"] or \
        payload["counters"].get("fleet_chaos_trials") == 2
    assert "invariants held" in result.render()


def test_chaos_check_trial_flags_violations():
    record = ChaosTrial(
        trial=0, seed=1, fault_counts={}, submitted=4, completed=2,
        shed=1, migrations=0, quarantines=3, recoveries=1,
        still_quarantined=0, conserved=False, byte_stable=False,
        slo_violation_rate=0.0, shed_rate=0.25)
    fleet = FleetResult(policy_name="p", trace_name="t", seed=1,
                        num_nodes=2, submitted=1, shed=[ShedJob(
                            job_id=9, name="j9", job_class=LATENCY,
                            arrival_s=0.0, deadline_s=1.0, expected_s=1e-4,
                            shed_s=0.0, reason="unmeetable")])
    violations = []
    _check_trial(fleet, record, violations)
    text = "\n".join(violations)
    assert "conservation broken" in text
    assert "payload differs" in text
    assert "wedged in quarantine" in text
    assert "latency-class job 9" in text


@pytest.mark.timeout(300)
def test_fleet_chaos_cli_roundtrip(tmp_path):
    export = tmp_path / "FLEET_chaos.json"
    code = main(["fleet-chaos", "--small", "--jobs", "8", "--nodes", "3",
                 "--trials", "1", "--seed", "5", "--crash-trials", "4",
                 "--store", str(tmp_path / "store"),
                 "--export", str(export)])
    assert code == 0
    payload = json.loads(export.read_text())
    assert payload["passed"] is True
    assert payload["trials"][0]["conserved"] is True


def test_chaos_quarantines_always_recover(small_arch):
    """Timed recoveries: no trial may end with a wedged quarantine."""
    config = FleetChaosConfig(jobs=6, nodes=2, trials=1,
                              determinism_trials=0, seed=13,
                              crash_write_trials=0,
                              faults=NodeFaultConfig(crash_rate=1.5,
                                                     hang_rate=1.0,
                                                     seed=13))
    result = run_fleet_chaos(small_arch, policy_factory("governor"),
                             config, policy_name="governor")
    assert result.passed, result.violations
    trial = result.trials[0]
    assert trial.recoveries >= trial.quarantines - trial.still_quarantined
    assert trial.still_quarantined == 0  # every timed outage resolved


@pytest.mark.timeout(300)
def test_fleet_chaos_replays_at_a_different_worker_count(small_arch,
                                                         monkeypatch):
    """Invariant 2 compares two worker counts, even at default workers."""
    from repro.evaluation import fleet_chaos
    from repro.parallel import resolve_workers
    resolved = []
    scheduler = fleet_chaos.ClusterScheduler

    def recording_scheduler(*args, **kwargs):
        resolved.append(resolve_workers(kwargs["workers"]))
        return scheduler(*args, **kwargs)

    monkeypatch.setattr(fleet_chaos, "ClusterScheduler", recording_scheduler)
    config = FleetChaosConfig(jobs=4, nodes=2, trials=1,
                              determinism_trials=1, seed=5,
                              crash_write_trials=0)
    result = run_fleet_chaos(small_arch, policy_factory("governor"),
                             config, policy_name="governor")
    assert result.trials[0].byte_stable is True
    primary, replay = resolved
    assert primary != replay
