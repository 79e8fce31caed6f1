"""Top-level GPU simulator."""

import numpy as np
import pytest

from repro.errors import SimulationError, SnapshotError
from repro.gpu.arch import small_test_config
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.power.model import PowerModel
from repro.units import us

ARCH = small_test_config(num_clusters=3)


def _kernel(iterations=4):
    return KernelProfile(
        name="sim.test",
        phases=[compute_phase("a", 15_000, warps=12),
                memory_phase("b", 10_000, warps=12)],
        iterations=iterations,
        jitter=0.05,
    )


class PinnedPolicy:
    """Test policy: always returns a fixed level."""

    def __init__(self, level):
        self.name = f"pinned-{level}"
        self.level = level

    def reset(self, simulator):
        simulator.set_all_levels(self.level)

    def decide(self, record):
        return self.level


def _sim(seed=3, kernel=None):
    return GPUSimulator(ARCH, kernel or _kernel(), PowerModel(), seed=seed)


def test_step_epoch_produces_full_record():
    sim = _sim()
    record = sim.step_epoch()
    assert record.index == 0
    assert record.duration_s == pytest.approx(us(10))
    assert len(record.cluster_counters) == ARCH.num_clusters
    assert record.instructions > 0
    assert record.energy_j > 0
    assert record.counters["power_per_core"] > 0


def test_power_counters_filled_per_cluster():
    record = _sim().step_epoch()
    for counters in record.cluster_counters:
        assert counters["power_per_core"] == pytest.approx(
            counters["power_dynamic"] + counters["power_static"])
        assert counters["energy_epoch"] > 0


def test_run_completes_kernel():
    sim = _sim()
    result = sim.run(PinnedPolicy(5))
    assert sim.finished
    assert result.time_s > 0
    assert result.energy_j > 0
    assert result.epochs == len(result.records)


def test_run_at_min_level_uses_less_power():
    fast = _sim(seed=3).run(PinnedPolicy(5))
    slow = _sim(seed=3).run(PinnedPolicy(0))
    assert (slow.account.energy_j / slow.account.time_s
            < fast.account.energy_j / fast.account.time_s)
    assert slow.time_s >= fast.time_s * 0.99


def test_deterministic_given_seed():
    a = _sim(seed=11).run(PinnedPolicy(5))
    b = _sim(seed=11).run(PinnedPolicy(5))
    assert a.time_s == pytest.approx(b.time_s)
    assert a.energy_j == pytest.approx(b.energy_j)


def test_different_seeds_differ():
    a = _sim(seed=11).run(PinnedPolicy(5))
    b = _sim(seed=12).run(PinnedPolicy(5))
    assert a.energy_j != pytest.approx(b.energy_j, rel=1e-9)


def test_final_epoch_truncation():
    """The run must not charge a full idle epoch at the end."""
    result = _sim().run(PinnedPolicy(5))
    # Total time must not be an exact multiple of the epoch unless the
    # kernel happened to end exactly on a boundary (last epoch truncated).
    last = result.records[-1]
    assert last.all_finished
    assert result.time_s <= result.epochs * us(10) + 1e-12


def test_apply_decision_broadcast_and_per_cluster():
    sim = _sim()
    sim.apply_decision(2)
    assert sim.levels == [2, 2, 2]
    sim.apply_decision([0, 1, 2])
    assert sim.levels == [0, 1, 2]
    with pytest.raises(SimulationError):
        sim.apply_decision([0, 1])


def test_apply_decision_numpy_scalar_broadcasts():
    """Regression: np.int64 (an MLP argmax) must broadcast, not be
    treated as a per-cluster sequence."""
    sim = _sim()
    sim.apply_decision(np.int64(2))
    assert sim.levels == [2, 2, 2]
    sim.apply_decision(np.argmax(np.array([0.1, 0.9, 0.2])))
    assert sim.levels == [1, 1, 1]
    sim.apply_decision(np.float64(3.0))
    assert sim.levels == [3, 3, 3]
    sim.apply_decision(np.array(0))  # 0-d array
    assert sim.levels == [0, 0, 0]
    sim.apply_decision(np.array([0, 1, 2]))  # 1-d stays per-cluster
    assert sim.levels == [0, 1, 2]


def test_step_after_finish_rejected():
    sim = _sim(kernel=_kernel(iterations=1))
    sim.run(PinnedPolicy(5))
    with pytest.raises(SimulationError):
        sim.step_epoch()


def test_snapshot_restore_replays_run():
    sim = _sim(seed=5)
    sim.step_epoch()
    snap = sim.snapshot()
    first = [sim.step_epoch().instructions for _ in range(3)]
    sim.restore(snap)
    second = [sim.step_epoch().instructions for _ in range(3)]
    assert first == pytest.approx(second)


def test_snapshot_epoch_length_mismatch_rejected():
    """Regression: restoring a snapshot taken with a different epoch_s
    must fail loudly instead of silently mixing epoch timings."""
    sim = _sim()
    snap = sim.snapshot()
    assert snap["epoch_s"] == pytest.approx(us(10))
    other = GPUSimulator(ARCH, _kernel(), PowerModel(), seed=3,
                         epoch_s=us(20))
    with pytest.raises(SnapshotError):
        other.restore(snap)
    # Legacy snapshots without the field restore against the current
    # epoch (nothing to check against).
    legacy = {k: v for k, v in sim.snapshot().items() if k != "epoch_s"}
    sim.restore(legacy)


def test_final_record_consistent_with_account():
    """Regression: the final partial epoch's record is truncated, so
    summed record durations/energies equal the run totals."""
    result = _sim().run(PinnedPolicy(5))
    assert sum(r.duration_s for r in result.records) == pytest.approx(
        result.time_s, abs=1e-15)
    assert sum(r.energy_j for r in result.records) == pytest.approx(
        result.energy_j, rel=1e-12)
    last = result.records[-1]
    assert last.all_finished
    assert last.duration_s <= us(10)
    assert last.duration_s == pytest.approx(
        min(us(10), max(last.finish_time_s, 1e-12)))


def test_snapshot_wrong_kernel_rejected():
    sim_a = _sim()
    other = GPUSimulator(ARCH, KernelProfile(
        name="other", phases=[compute_phase("x", 1000)]), PowerModel())
    snap = sim_a.snapshot()
    with pytest.raises(SnapshotError):
        other.restore(snap)


def test_max_epoch_guard():
    sim = _sim(kernel=_kernel(iterations=500))
    with pytest.raises(SimulationError):
        sim.run(PinnedPolicy(5), max_epochs=2)


def test_invalid_epoch_length_rejected():
    with pytest.raises(SimulationError):
        GPUSimulator(ARCH, _kernel(), PowerModel(), epoch_s=0.0)


def test_clusters_have_skew():
    sim = _sim()
    done = [c.instructions_done for c in sim.clusters]
    assert len(set(done)) > 1
