"""The chaos trial loop shared by the fleet and serve harnesses."""

from dataclasses import dataclass, field

import pytest

from repro.evaluation.certify import CertifyResult, run_trials
from repro.parallel import resolve_workers


@dataclass
class _Row:
    trial: int
    stable: bool | None


@dataclass
class _Result(CertifyResult):
    trials: list = field(default_factory=list)


@dataclass
class _Run:
    value: int

    def to_payload(self):
        return {"value": self.value}


@dataclass(frozen=True)
class _Config:
    trials: int = 3
    determinism_trials: int = 1


@pytest.mark.parametrize("workers", [None, 1, 3])
def test_run_trials_replays_at_another_worker_count(workers):
    calls = []

    def replay(seed, run_workers, stats, run_name):
        calls.append((run_name, resolve_workers(run_workers)))
        return _Run(seed % 7)

    def summarise(trial, seed, run, byte_stable):
        return _Row(trial, byte_stable), ({"runs": 1}, {"runs": 2})

    result = _Result(seed=9)
    first = run_trials(result, "demo-chaos", _Config(), workers, None,
                       replay, summarise, lambda run, row, found: None)
    assert [name for name, _ in calls] == [
        "trial000", "trial000-replay", "trial001", "trial002"]
    assert calls[0][1] != calls[1][1]
    assert [row.stable for row in result.trials] == [True, None, None]
    assert result.counters == {"runs": 9, "demo_chaos_trials": 3}
    assert first.startswith(b"{")
