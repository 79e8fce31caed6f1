"""Serve-chaos certification harness: invariants, gating, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.evaluation.serve_chaos import (CHAOS_FAULTS, ServeChaosConfig,
                                          ServeChaosResult, run_serve_chaos)
from repro.serve import ServeConfig
from repro.store import write_json


def _config(**kwargs):
    defaults = dict(trials=2, determinism_trials=1, seed=5,
                    serve=ServeConfig(streams=2, ticks=120, num_workers=2,
                                      faults=CHAOS_FAULTS),
                    crash_write_trials=4)
    defaults.update(kwargs)
    return ServeChaosConfig(**defaults)


def test_serve_chaos_passes_and_exports(small_arch, tmp_path):
    result = run_serve_chaos(small_arch, _config(),
                             store_root=tmp_path / "store", workers=0)
    assert result.passed, result.violations
    assert len(result.trials) == 2
    assert result.trials[0].byte_stable is True
    assert result.trials[1].byte_stable is None  # dual-run skipped
    assert all(trial.conserved for trial in result.trials)
    assert result.crash_trials >= 4 and result.crash_torn_reads == 0
    path = write_json(tmp_path / "SERVE_chaos.json", result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["counters"]["serve_chaos_trials"] == 2
    rendered = result.render()
    assert "all serving invariants held" in rendered


def test_serve_chaos_trials_are_seed_isolated(small_arch, tmp_path):
    result = run_serve_chaos(small_arch, _config(determinism_trials=0),
                             store_root=tmp_path, workers=0)
    seeds = {trial.seed for trial in result.trials}
    assert len(seeds) == 2  # each trial drew its own fault train


def test_serve_chaos_config_validation():
    with pytest.raises(ServeError):
        _config(trials=0)
    with pytest.raises(ServeError):
        _config(determinism_trials=5)
    with pytest.raises(ServeError):
        _config(recovery_budget_ticks=3)  # below the supervisor worst case
    with pytest.raises(ServeError):
        _config(serve=ServeConfig(streams=2))  # no fault rate active


def test_serve_chaos_violations_fail_the_gate():
    result = ServeChaosResult(policy_name="p", streams=1, num_workers=1,
                              seed=0)
    assert result.passed
    result.violations.append("trial 0: something broke")
    assert not result.passed
    assert result.to_payload()["passed"] is False
    assert "SERVE INVARIANT VIOLATIONS" in result.render()


def test_cli_serve_chaos_gate_exits_zero_on_pass(tmp_path):
    code = main(["serve-chaos", "--small", "--seed", "5", "--trials", "1",
                 "--streams", "2", "--ticks", "100",
                 "--crash-trials", "2",
                 "--store", str(tmp_path / "store"),
                 "--export", str(tmp_path / "SERVE_chaos_smoke.json")])
    assert code == 0
    payload = json.loads((tmp_path / "SERVE_chaos_smoke.json").read_text())
    assert payload["passed"] is True
    assert payload["policy"] == "governor+serve"


def test_cli_serve_replay_exits_zero(tmp_path, capsys):
    code = main(["serve", "--small", "--seed", "3", "--streams", "2",
                 "--ticks", "80",
                 "--export", str(tmp_path / "SERVE_run.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "conserved=yes" in out
    payload = json.loads((tmp_path / "SERVE_run.json").read_text())
    assert payload["conserved"] is True
