"""Fleet layer: traces, deadline queue, placement, replay, CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import FleetError
from repro.fleet import (BUILTIN_TRACES, LATENCY, THROUGHPUT,
                         ClusterScheduler, Job, NodeTracker,
                         PendingJobQueue, ThermalConfig, TraceConfig,
                         build_trace, policy_factory, tail_latencies)
from repro.fleet.jobs import (LATENCY_DEADLINE_FACTOR,
                              THROUGHPUT_DEADLINE_FACTOR)
from repro.parallel import CampaignStats


def _jobs(arch, **overrides):
    config = dict(trace="steady", jobs=12, nodes=4, load=0.7, seed=5)
    config.update(overrides)
    return build_trace(arch, TraceConfig(**config))


def _job(job_id, arrival_s=0.0, deadline_s=1.0, expected_s=1e-4,
         job_class=LATENCY):
    return Job(job_id=job_id, name=f"j{job_id}", job_class=job_class,
               kernel=None, arrival_s=arrival_s, expected_s=expected_s,
               deadline_s=deadline_s)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_traces_are_deterministic_and_classed(small_arch):
    for trace in BUILTIN_TRACES:
        jobs = _jobs(small_arch, trace=trace)
        assert jobs == _jobs(small_arch, trace=trace)
        assert len(jobs) == 12
        arrivals = [j.arrival_s for j in jobs]
        assert arrivals == sorted(arrivals) and arrivals[0] >= 0.0
        classes = {j.job_class for j in jobs}
        assert classes == {LATENCY, THROUGHPUT}


def test_trace_deadlines_follow_class_factors(small_arch):
    config = TraceConfig(trace="steady", jobs=10, nodes=2, seed=3)
    for job in build_trace(small_arch, config):
        factor = (LATENCY_DEADLINE_FACTOR
                  if job.job_class == LATENCY
                  else THROUGHPUT_DEADLINE_FACTOR)
        assert job.deadline_s == pytest.approx(
            job.arrival_s + factor * job.expected_s)
        assert job.slack_s > 0


def test_trace_seed_changes_arrivals(small_arch):
    assert [j.arrival_s for j in _jobs(small_arch, seed=1)] != \
        [j.arrival_s for j in _jobs(small_arch, seed=2)]


@pytest.mark.parametrize("bad", [
    dict(trace="nope"), dict(jobs=0), dict(nodes=0), dict(load=0.0),
    dict(load=-1.0), dict(latency_fraction=1.5),
])
def test_trace_config_validation(bad):
    with pytest.raises(FleetError):
        TraceConfig(**{**dict(trace="steady"), **bad})


# ---------------------------------------------------------------------------
# Deadline queue
# ---------------------------------------------------------------------------

def test_queue_orders_by_deadline_then_arrival():
    queue = PendingJobQueue()
    queue.push(_job(0, deadline_s=3.0))
    queue.push(_job(1, deadline_s=1.0))
    queue.push(_job(2, deadline_s=2.0))
    assert [queue.pop().job_id for _ in range(3)] == [1, 2, 0]


def test_queue_breaks_deadline_ties_fifo():
    queue = PendingJobQueue()
    for job_id in (7, 3, 5):
        queue.push(_job(job_id, deadline_s=1.0))
    assert [queue.pop().job_id for _ in range(3)] == [7, 3, 5]


def test_queue_tracks_peak_depth_and_raises_when_empty():
    queue = PendingJobQueue()
    for job_id in range(4):
        queue.push(_job(job_id))
    while queue:
        queue.pop()
    assert queue.peak_depth == 4
    with pytest.raises(FleetError):
        queue.pop()


# ---------------------------------------------------------------------------
# Node tracker
# ---------------------------------------------------------------------------

def test_tracker_prefers_idle_then_lowest_id():
    tracker = NodeTracker(3)
    first = tracker.least_contended(0.0)
    assert first.node_id == 0
    tracker.assign(first, 0.0, 1.0)
    second = tracker.least_contended(0.0)
    assert second.node_id == 1


def test_tracker_thermal_state_rises_and_cools():
    tracker = NodeTracker(1, thermal=ThermalConfig(tau_s=1e-3))
    node = tracker.nodes[0]
    ambient = node.temperature_c
    tracker.assign(node, 0.0, 1e-4)
    tracker.complete(node, 1e-4, 1e-4, energy_j=0.5, mean_level=3.0)
    hot = node.temperature_c
    assert hot > ambient
    tracker.least_contended(1.0)  # cool-down far past tau
    assert ambient <= node.temperature_c < hot
    assert node.peak_temperature_c == pytest.approx(hot)


def test_tracker_rejects_time_travel_assignment():
    tracker = NodeTracker(1)
    node = tracker.nodes[0]
    tracker.assign(node, 0.0, 1.0)
    with pytest.raises(FleetError):
        tracker.assign(node, 0.5, 2.0)


# ---------------------------------------------------------------------------
# Scheduler replay
# ---------------------------------------------------------------------------

def _schedule(arch, jobs, *, workers=None, seed=5, nodes=4,
              stats=None):
    scheduler = ClusterScheduler(
        arch, policy_factory("governor"), num_nodes=nodes,
        policy_name="governor", seed=seed, workers=workers, stats=stats)
    return scheduler.run(jobs, trace_name="test")


def test_replay_is_deterministic_across_worker_counts(small_arch):
    jobs = _jobs(small_arch)
    serial = _schedule(small_arch, jobs)
    again = _schedule(small_arch, jobs)
    pooled = _schedule(small_arch, jobs, workers=2)
    assert serial.to_payload() == again.to_payload()
    assert serial.to_payload() == pooled.to_payload()


def test_replay_accounts_every_job_once(small_arch):
    jobs = _jobs(small_arch)
    result = _schedule(small_arch, jobs)
    assert sorted(o.job_id for o in result.outcomes) == \
        sorted(j.job_id for j in jobs)
    for outcome in result.outcomes:
        assert 0 <= outcome.node_id < 4
        assert outcome.start_s >= outcome.arrival_s
        assert outcome.finish_s == pytest.approx(
            outcome.start_s + outcome.service_s)
    assert result.makespan_s > 0
    assert result.fleet_edp == pytest.approx(
        result.total_energy_j * result.makespan_s)


def test_overload_violates_slos_and_counts_them(small_arch):
    jobs = _jobs(small_arch, trace="burst", jobs=16, nodes=2, load=6.0)
    stats = CampaignStats()
    result = _schedule(small_arch, jobs, nodes=2, stats=stats)
    assert result.violations() > 0
    assert 0.0 < result.slo_violation_rate() <= 1.0
    assert result.peak_queue_depth > 1
    assert stats.counters["fleet_jobs"] == 16
    assert stats.counters["fleet_dispatches"] == 16
    assert stats.counters["fleet_slo_violations"] == result.violations()
    # The tight-deadline class must violate at least as often.
    assert result.slo_violation_rate(LATENCY) >= \
        result.slo_violation_rate(THROUGHPUT)


def test_empty_stream_and_bad_policy_raise():
    with pytest.raises(FleetError):
        policy_factory("warp-drive")
    with pytest.raises(FleetError):
        policy_factory("ssmdvfs")  # needs a model
    with pytest.raises(FleetError):
        policy_factory("static")  # needs a level


def test_tail_latencies_handle_empty_and_ordered_samples():
    assert tail_latencies([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    tails = tail_latencies([1.0, 2.0, 3.0, 4.0])
    assert tails["p50"] <= tails["p95"] <= tails["p99"] <= 4.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_fleet_exports_byte_identical_json(tmp_path, capsys):
    argv = ["fleet", "--small", "--nodes", "4", "--jobs", "10",
            "--trace", "steady", "--policy", "governor", "--seed", "9"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--export", str(first)]) == 0
    assert main(argv + ["--export", str(second), "--workers", "2"]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["jobs"] == 10 and payload["nodes"] == 4
    assert "Fleet replay" in capsys.readouterr().out


def test_cli_fleet_slo_gate_exit_codes(tmp_path, capsys):
    argv = ["fleet", "--small", "--nodes", "2", "--jobs", "12",
            "--trace", "burst", "--load", "6.0", "--policy", "governor",
            "--seed", "9"]
    assert main(argv + ["--slo-gate", "1.0"]) == 0
    assert main(argv + ["--slo-gate", "0.0"]) == 1
    out = capsys.readouterr().out
    assert "SLO gate ok" in out and "SLO gate FAILED" in out


def test_cli_fleet_checkpoint_is_keyed_by_campaign(tmp_path, monkeypatch,
                                                   capsys):
    import repro.parallel as parallel_module
    paths: list[str] = []
    real_ckpt = parallel_module.CampaignCheckpoint

    def recording_ckpt(path, **kwargs):
        paths.append(str(path))
        return real_ckpt(path, **kwargs)

    monkeypatch.setattr(parallel_module, "CampaignCheckpoint",
                        recording_ckpt)
    argv = ["fleet", "--policy", "pcstall", "--nodes", "2", "--jobs", "3",
            "--checkpoint", "--cache", str(tmp_path)]
    runs = [["--small"], ["--small", "--preset", "0.30"], [],
            ["--small", "--load", "0.5"], ["--small"]]
    for extra in runs:
        assert main(argv + extra) == 0
    capsys.readouterr()
    assert len(paths) == len(runs)
    assert all(path.startswith(str(tmp_path / "fleet-")) for path in paths)
    # Only the repeated run may resume into the first run's file.
    assert paths[-1] == paths[0]
    assert len(set(paths)) == len(runs) - 1
