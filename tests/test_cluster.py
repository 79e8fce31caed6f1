"""Per-cluster execution engine."""

import pytest

from repro.errors import SimulationError
from repro.gpu.arch import titan_x_config
from repro.gpu.cluster import (A_BUSY_S, A_CLASS0, A_CYCLES, A_INSTRUCTIONS,
                               A_STALL_MEM_LOAD, ClusterState,
                               build_counters_matrix)
from repro.gpu.counters import CounterSet
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import WorkloadNoise
from repro.gpu.phases import (INSTRUCTION_CLASSES, balanced_phase,
                              compute_phase, memory_phase)
from repro.gpu.quantum import run_epoch_batch
from repro.rng import stream
from repro.units import us

ARCH = titan_x_config()


def _cluster(phases=None, iterations=3, sigma=0.0, skew=0.0):
    kernel = KernelProfile(
        name="t.k",
        phases=phases or [compute_phase("a", 20_000),
                          memory_phase("b", 15_000)],
        iterations=iterations,
    )
    noise = WorkloadNoise(stream("test-noise", 9), sigma=sigma)
    return ClusterState(ARCH, kernel, noise, skew_instructions=skew)


def _epoch(cluster, epoch_s=us(10)):
    """Advance one cluster by one epoch; returns its activity vector."""
    return run_epoch_batch([cluster], epoch_s).matrix[0]


def test_epoch_advances_work():
    cluster = _cluster()
    activity = _epoch(cluster)
    assert activity[A_INSTRUCTIONS] > 0
    assert cluster.instructions_done == pytest.approx(
        activity[A_INSTRUCTIONS])


def test_epoch_duration_recorded():
    activity = _epoch(_cluster())
    assert 0 < activity[A_BUSY_S] <= us(10) + 1e-12


def test_instruction_classes_sum_to_total():
    activity = _epoch(_cluster())
    classes = activity[A_CLASS0:A_CLASS0 + len(INSTRUCTION_CLASSES)]
    assert classes.sum() == pytest.approx(activity[A_INSTRUCTIONS], rel=1e-9)


def test_kernel_finishes_and_then_idles():
    cluster = _cluster(iterations=1)
    for _ in range(200):
        if cluster.finished:
            break
        _epoch(cluster)
    assert cluster.finished
    idle = run_epoch_batch([cluster], us(10))
    assert idle.matrix[0, A_INSTRUCTIONS] == 0
    assert idle.matrix[0, A_CYCLES] > 0  # idle cycles still clock
    assert idle.finished[0]


def test_lower_level_executes_fewer_instructions_on_compute():
    fast = _cluster(phases=[compute_phase("c", 10 ** 9, warps=16)])
    slow = _cluster(phases=[compute_phase("c", 10 ** 9, warps=16)])
    slow.set_level(0)
    a_fast = _epoch(fast)
    a_slow = _epoch(slow)
    assert a_slow[A_INSTRUCTIONS] < a_fast[A_INSTRUCTIONS] * 0.75


def test_memory_bound_barely_affected_by_level():
    fast = _cluster(phases=[memory_phase("m", 10 ** 9, l1_miss=0.8, l2_miss=0.8)])
    slow = _cluster(phases=[memory_phase("m", 10 ** 9, l1_miss=0.8, l2_miss=0.8)])
    slow.set_level(0)
    a_fast = _epoch(fast)
    a_slow = _epoch(slow)
    assert a_slow[A_INSTRUCTIONS] > a_fast[A_INSTRUCTIONS] * 0.88


def test_set_level_out_of_range_rejected():
    with pytest.raises(SimulationError):
        _cluster().set_level(6)
    with pytest.raises(SimulationError):
        _cluster().set_level(-1)


def test_dvfs_transition_charges_dead_time():
    a = _cluster(phases=[compute_phase("c", 10 ** 9)])
    b = _cluster(phases=[compute_phase("c", 10 ** 9)])
    b.set_level(4)
    b.set_level(5)  # two transitions pending
    act_a = _epoch(a)
    act_b = _epoch(b)
    assert act_b[A_INSTRUCTIONS] < act_a[A_INSTRUCTIONS]


def test_same_level_switch_is_free():
    cluster = _cluster()
    cluster.set_level(cluster.level)
    assert cluster._pending_transition_s == 0.0


def test_snapshot_restore_replays_exactly():
    cluster = _cluster(sigma=0.1)
    _epoch(cluster)
    snap = cluster.snapshot()
    first = _epoch(cluster)
    cluster.restore(snap)
    second = _epoch(cluster)
    assert first[A_INSTRUCTIONS] == pytest.approx(second[A_INSTRUCTIONS])
    assert first[A_STALL_MEM_LOAD] == pytest.approx(second[A_STALL_MEM_LOAD])


def test_replay_at_other_level_is_deterministic():
    """Restoring and running at another V/f must itself replay exactly —
    the noise is indexed by workload position, not by wall-clock time."""
    cluster = _cluster(sigma=0.15, iterations=50)
    _epoch(cluster)
    snap = cluster.snapshot()
    base_done = None
    runs = []
    for _ in range(2):
        cluster.restore(snap)
        cluster.set_level(0)
        runs.append(_epoch(cluster, us(50)))
        base_done = cluster.instructions_done
    assert runs[0][A_INSTRUCTIONS] == pytest.approx(runs[1][A_INSTRUCTIONS])
    assert runs[0][A_STALL_MEM_LOAD] == pytest.approx(
        runs[1][A_STALL_MEM_LOAD])
    # And the slow run cannot out-execute the fast one over the same time.
    cluster.restore(snap)
    cluster.set_level(5)
    _epoch(cluster, us(50))
    assert base_done <= cluster.instructions_done + 1e-6


def test_nonpositive_epoch_rejected():
    with pytest.raises(SimulationError):
        _epoch(_cluster(), 0.0)


def test_build_counters_consistency():
    cluster = _cluster(phases=[balanced_phase("b", 50_000)])
    activity = _epoch(cluster)
    counters = CounterSet.from_vector(
        build_counters_matrix(activity[None, :], ARCH)[0])
    assert counters["inst_total"] == pytest.approx(activity[A_INSTRUCTIONS])
    assert counters["ipc"] == pytest.approx(
        activity[A_INSTRUCTIONS] / activity[A_CYCLES])
    assert counters["l1_read_hit"] == pytest.approx(
        counters["l1_read_access"] - counters["l1_read_miss"])
    assert 0 <= counters["occupancy"] <= 1
    assert 0 <= counters["warp_issue_efficiency"] <= 1
    assert counters["stall_mem_hazard"] == pytest.approx(
        counters["stall_mem_hazard_load"] + counters["stall_mem_hazard_nonload"])


def test_skew_desynchronises_clusters():
    a = _cluster(skew=0.0)
    b = _cluster(skew=5_000.0)
    assert b.instructions_done > a.instructions_done
