"""Per-kernel sharing in Fig. 4 campaigns, and noise-track ids.

The serial grid runs a kernel's baseline and every policy on one
:class:`SolutionCache` and one noise cache, and a campaign (every
preset of :func:`run_fig4`, every cell of :func:`fault_sweep`) keeps
them, plus the baseline's outcome, for all its grids.  That is only
free because solve keys name noise by track id and chunk: equal-content
tracks share an id, unseeded tracks never do, and flat tracks collapse
to one id at chunk 0.  A one-entry cache, which flushes on every new
key, stands in for "cache off".
"""

import pickle
from functools import partial

import pytest

from repro.baselines.governor import UtilizationGovernor
from repro.baselines.pcstall import PCSTALLPolicy
from repro.core.policy import StaticPolicy
from repro.evaluation import runner
from repro.evaluation.cache import cached_comparison, comparison_cache_key
from repro.evaluation.experiments import fig4_policy_factories, run_fig4
from repro.evaluation.robustness import fault_sweep
from repro.evaluation.runner import compare_policies
from repro.gpu.arch import small_test_config
from repro.gpu.interval_model import SolutionCache
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import FLAT_TRACK_ID
from repro.gpu.phases import balanced_phase, compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignCheckpoint, CampaignStats
from repro.power.model import PowerModel
from repro.units import us

ARCH = small_test_config()
SEED = 4
PRESET = 0.1


def _kernels(jitter=0.06):
    return [
        KernelProfile("share.compute",
                      [compute_phase("c", 50_000, warps=16),
                       balanced_phase("b", 30_000)],
                      iterations=3, jitter=jitter),
        KernelProfile("share.memory",
                      [memory_phase("m", 60_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=3, jitter=jitter),
    ]


def _factories():
    return {"low": partial(StaticPolicy, 0),
            "pcstall": partial(PCSTALLPolicy, PRESET),
            "governor": UtilizationGovernor}


def _per_run_grid(cache_factory):
    """The grid run by hand, each run on its own cache."""
    runs, caches = [], []
    lineup = [("baseline", partial(StaticPolicy,
                                   ARCH.vf_table.default_level))]
    lineup += list(_factories().items())
    for kernel in _kernels():
        for name, factory in lineup:
            cache = cache_factory()
            simulator = GPUSimulator(ARCH, kernel, PowerModel(), seed=SEED,
                                     epoch_s=us(10), solution_cache=cache)
            result = simulator.run(factory(), keep_records=False)
            runs.append((name, kernel.name, result.time_s.hex(),
                         result.energy_j.hex(), result.epochs))
            caches.append(cache)
    return runs, caches


def _fingerprint(comparison):
    return [(run.policy_name, run.kernel_name, run.time_s.hex(),
             run.energy_j.hex(), run.epochs) for run in comparison.runs]


def _hit_ratio(caches):
    return (sum(cache.hits for cache in caches)
            / sum(cache.hits + cache.misses for cache in caches))


def _record_caches(monkeypatch) -> list:
    created: list = []

    class RecordingCache(SolutionCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(runner, "SolutionCache", RecordingCache)
    return created


def _record_runs(monkeypatch) -> list:
    """Patch ``GPUSimulator.run`` to log the policy of every run."""
    policies: list = []
    run = GPUSimulator.run

    def recording_run(self, policy, *args, **kwargs):
        policies.append(policy)
        return run(self, policy, *args, **kwargs)

    monkeypatch.setattr(GPUSimulator, "run", recording_run)
    return policies


def _is_baseline(policy) -> bool:
    return (isinstance(policy, StaticPolicy)
            and policy.level == ARCH.vf_table.default_level)


def test_serial_grid_shares_one_cache_per_kernel(monkeypatch):
    created = _record_caches(monkeypatch)
    shared = compare_policies(_factories(), _kernels(), ARCH, PRESET,
                              seed=SEED)
    monkeypatch.undo()

    starved, _ = _per_run_grid(lambda: SolutionCache(max_entries=1))
    assert _fingerprint(shared) == starved
    per_run, per_run_caches = _per_run_grid(SolutionCache)
    assert per_run == starved
    # One cache per kernel, not per run, and it is worth sharing.
    assert len(created) == len(_kernels())
    assert _hit_ratio(created) > _hit_ratio(per_run_caches)

    # A whole Fig. 4 campaign still builds one cache per kernel and
    # simulates each kernel's baseline once, however many presets.
    created = _record_caches(monkeypatch)
    policies = _record_runs(monkeypatch)
    presets = (0.05, 0.1, 0.2)
    run_fig4({}, _kernels(), ARCH, presets=presets, seed=SEED)
    monkeypatch.undo()
    lineup = len(fig4_policy_factories({}, PRESET))
    assert len(created) == len(_kernels())
    assert sum(map(_is_baseline, policies)) == len(_kernels())
    assert len(policies) == len(_kernels()) * (1 + lineup * len(presets))


def test_parallel_grid_matches_serial():
    serial = compare_policies(_factories(), _kernels(), ARCH, PRESET,
                              seed=SEED, workers=1)
    pooled = compare_policies(_factories(), _kernels(), ARCH, PRESET,
                              seed=SEED, workers=2)
    assert _fingerprint(pooled) == _fingerprint(serial)


def test_old_per_run_checkpoint_is_not_resumed(tmp_path):
    factories, kernels = _factories(), _kernels()
    clean = compare_policies(factories, kernels, ARCH, PRESET, seed=SEED)
    key = comparison_cache_key(list(factories), kernels, ARCH, PRESET,
                               seed=SEED)
    # Per-run outcomes, as the serial grid checkpointed them before its
    # unit became one kernel: under the old name and under the new name
    # with the old campaign key.
    per_run = {index: (1.0, 1.0, 1, {})
               for index in range(len(kernels) * (len(factories) + 1))}
    CampaignCheckpoint(tmp_path / f"grid-{key}.ckpt", key=key).save(per_run)
    CampaignCheckpoint(tmp_path / f"grid-{key}.kernel.ckpt",
                       key=key).save(per_run)
    stats = CampaignStats()
    resumed = cached_comparison(tmp_path, factories, kernels, ARCH, PRESET,
                                seed=SEED, stats=stats, checkpoint=True)
    assert resumed.to_payload() == clean.to_payload()
    assert stats.counters["campaign_tasks_resumed"] == 0


def test_per_kernel_checkpoint_resumes(tmp_path):
    factories, kernels = _factories(), _kernels()
    clean = compare_policies(factories, kernels, ARCH, PRESET, seed=SEED)
    key = comparison_cache_key(list(factories), kernels, ARCH, PRESET,
                               seed=SEED)
    lineup = ([partial(StaticPolicy, ARCH.vf_table.default_level)]
              + list(factories.values()))
    first = runner._kernel_task((lineup, kernels[0], ARCH, SEED,
                                 runner.KernelReplay()))
    CampaignCheckpoint(tmp_path / f"grid-{key}.kernel.ckpt",
                       key=f"{key}.kernel").save({0: first})
    stats = CampaignStats()
    resumed = cached_comparison(tmp_path, factories, kernels, ARCH, PRESET,
                                seed=SEED, stats=stats, checkpoint=True)
    assert resumed.to_payload() == clean.to_payload()
    assert stats.counters["campaign_tasks_resumed"] == 1


# ---------------------------------------------------------------------------
# Campaign sharing: presets and cells reuse each kernel's replay
# ---------------------------------------------------------------------------

PRESETS = (0.1, 0.2)


def _payloads(fig4):
    return {preset: comparison.to_payload()
            for preset, comparison in fig4.comparisons.items()}


def _fresh_fig4_payloads():
    """Every preset's grid as its own fresh ``compare_policies`` call."""
    return {preset: compare_policies(
                fig4_policy_factories({}, preset, seed=SEED), _kernels(),
                ARCH, preset, seed=SEED).to_payload()
            for preset in PRESETS}


@pytest.mark.parametrize("workers", [1, 2])
def test_fig4_campaign_matches_fresh_comparisons(workers):
    fig4 = run_fig4({}, _kernels(), ARCH, presets=PRESETS, seed=SEED,
                    workers=workers)
    assert _payloads(fig4) == _fresh_fig4_payloads()


def test_fig4_campaign_resumed_checkpoint_matches_fresh(tmp_path,
                                                        monkeypatch):
    kernels = _kernels()
    kernel_task = runner._kernel_task

    class Interrupted(Exception):
        pass

    def interrupted(task):
        if task[1] is kernels[1]:
            raise Interrupted
        return kernel_task(task)

    # The first preset's grid dies after its first kernel; the rerun
    # resumes that kernel from the checkpoint.
    monkeypatch.setattr(runner, "_kernel_task", interrupted)
    with pytest.raises(Interrupted):
        run_fig4({}, kernels, ARCH, presets=PRESETS, seed=SEED,
                 cache_dir=tmp_path, checkpoint=True)
    monkeypatch.undo()
    stats = CampaignStats()
    fig4 = run_fig4({}, kernels, ARCH, presets=PRESETS, seed=SEED,
                    cache_dir=tmp_path, checkpoint=True, stats=stats)
    assert stats.counters["campaign_tasks_resumed"] == 1
    assert _payloads(fig4) == _fresh_fig4_payloads()


def test_one_replay_set_never_aliases_seeds_or_kernels():
    replay = runner.ReplaySet()
    # Same kernel names, different jitter: only object identity tells
    # the two lists apart.
    requests = [(_kernels(), SEED), (_kernels(), SEED + 1),
                (_kernels(jitter=0.03)[::-1], SEED)]
    for kernels, seed in requests + requests:
        shared = compare_policies(_factories(), kernels, ARCH, PRESET,
                                  seed=seed, replay=replay)
        fresh = compare_policies(_factories(), kernels, ARCH, PRESET,
                                 seed=seed)
        assert shared.to_payload() == fresh.to_payload()


def test_fault_sweep_simulates_each_baseline_once(monkeypatch):
    policies = _record_runs(monkeypatch)
    modes, rates = ["dropout", "actuation"], [0.0, 1.0]
    factories = {"governor": UtilizationGovernor,
                 "pcstall": partial(PCSTALLPolicy, PRESET)}
    result = fault_sweep(factories, _kernels(), ARCH, PRESET, modes, rates,
                         seed=SEED)
    cells = len(modes) * len(rates) * len(factories)
    assert len(result.cells) == cells
    assert len(policies) == len(_kernels()) * (cells + 1)
    assert sum(map(_is_baseline, policies)) == len(_kernels())


def test_pooled_task_carries_baseline_but_no_solved_rows(monkeypatch):
    replay, kernels = runner.ReplaySet(), _kernels()
    compare_policies(_factories(), kernels, ARCH, PRESET, seed=SEED,
                     replay=replay)
    tasks: list = []
    parallel_map = runner.parallel_map

    def recording_map(fn, task_list, **kwargs):
        tasks.extend(task_list)
        return parallel_map(fn, task_list, **kwargs)

    monkeypatch.setattr(runner, "parallel_map", recording_map)
    compare_policies(_factories(), kernels, ARCH, 0.2, seed=SEED,
                     workers=2, replay=replay)
    assert len(tasks) == len(kernels)
    for task in tasks:
        entry = task[-1]
        assert entry.baseline is not None
        assert len(entry.solution_cache) > 0 and entry.noise_cache
        shipped = pickle.loads(pickle.dumps(task))[-1]
        assert shipped.baseline == entry.baseline
        assert len(shipped.solution_cache) == 0
        assert shipped.noise_cache == {}


# ---------------------------------------------------------------------------
# Noise-track ids
# ---------------------------------------------------------------------------

def _replay(simulator, epochs=6):
    simulator.set_all_levels(ARCH.vf_table.default_level)
    for _ in range(epochs):
        simulator.step_epoch()


def test_seeded_simulators_share_track_ids_and_solves():
    kernel = _kernels()[0]
    cache = SolutionCache()
    first = GPUSimulator(ARCH, kernel, seed=SEED, solution_cache=cache)
    second = GPUSimulator(ARCH, kernel, seed=SEED, solution_cache=cache)
    ids = [cluster.noise.track_id for cluster in first.clusters]
    assert ids == [cluster.noise.track_id for cluster in second.clusters]
    assert len(set(ids)) == len(ids) and FLAT_TRACK_ID not in ids
    # Separate noise objects, equal values: the second replay is served
    # entirely from the first one's entries.
    assert first.clusters[0].noise is not second.clusters[0].noise
    _replay(first)
    misses = cache.misses
    _replay(second)
    assert cache.misses == misses
    assert cache.hits > 0
    other = GPUSimulator(ARCH, kernel, seed=SEED + 1)
    assert not set(ids) & {c.noise.track_id for c in other.clusters}


def test_unseeded_simulators_never_share_track_ids():
    kernel = _kernels()[0]
    ids = [cluster.noise.track_id
           for _ in range(2)
           for cluster in GPUSimulator(ARCH, kernel, seed=None).clusters]
    assert len(set(ids)) == len(ids)
    assert FLAT_TRACK_ID not in ids


def test_flat_tracks_share_entries_across_clusters_and_seeds():
    kernel = _kernels(jitter=0.0)[1]
    cache = SolutionCache()
    simulator = GPUSimulator(ARCH, kernel, seed=SEED, solution_cache=cache)
    assert {c.noise.track_id for c in simulator.clusters} == {FLAT_TRACK_ID}
    _replay(simulator, epochs=2)
    # One phase at one level: every cluster's quanta land on one entry.
    assert len(cache) == 1
    assert cache.hits + cache.misses > ARCH.num_clusters
    misses = cache.misses
    _replay(GPUSimulator(ARCH, kernel, seed=SEED + 1, solution_cache=cache),
            epochs=2)
    assert cache.misses == misses
