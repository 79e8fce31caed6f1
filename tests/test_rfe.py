"""Recursive feature elimination (Table I machinery)."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.datagen import rfe
from repro.datagen.rfe import (ImportanceWorkspace, RFESelector,
                               _permutation_importance,
                               permutation_importances)
from repro.gpu.counters import paper_category
from repro.nn.mlp import MLP
from repro.nn.metrics import accuracy
from repro.nn.trainer import TrainConfig
from repro.parallel import CampaignStats


@pytest.fixture(scope="module")
def rfe_result(small_dataset, small_arch):
    candidates = (
        "ipc", "inst_total", "frac_mem", "frac_branch", "occupancy",
        "stall_mem_hazard", "stall_mem_hazard_nonload", "stall_control",
        "l1_read_miss", "l1_read_miss_rate", "avg_mem_latency",
        "bandwidth_utilization",
    )
    selector = RFESelector(
        small_dataset, small_arch.issue_width, candidates=candidates,
        target_count=3, seed=5,
        train_config=TrainConfig(epochs=25, patience=6, learning_rate=3e-3,
                                 seed=5))
    return selector.run()


def test_selects_target_count(rfe_result):
    assert len(rfe_result.selected) == 3


def test_always_keep_present(rfe_result):
    assert "power_per_core" in rfe_result.all_features
    assert len(rfe_result.all_features) == 4


def test_rounds_shrink_monotonically(rfe_result):
    sizes = [len(r.features) for r in rfe_result.rounds]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] == 3


def test_eliminated_features_were_least_important(rfe_result):
    for round_ in rfe_result.rounds[:-1]:
        if not round_.eliminated:
            continue
        kept = [n for n in round_.features if n not in round_.eliminated]
        worst_kept = min(round_.importances[n] for n in kept)
        best_dropped = max(round_.importances[n] for n in round_.eliminated)
        assert best_dropped <= worst_kept + 1e-12


def test_accuracy_survives_refinement(rfe_result):
    """Paper: only a 0.48 pp accuracy drop after RFE; allow slack here."""
    assert rfe_result.selected_accuracy >= rfe_result.full_accuracy - 0.10


def test_selected_features_cover_informative_categories(rfe_result):
    """The selection must include stall/instruction signal, not noise."""
    categories = {paper_category(n) for n in rfe_result.selected}
    assert "stall" in categories or "instruction" in categories


def test_validation():
    class Dummy:
        pass

    with pytest.raises(DatasetError):
        # Fewer candidates than targets.
        RFESelector(Dummy(), 4.0, candidates=("ipc",), target_count=2)
    with pytest.raises(DatasetError):
        # Candidate overlaps the always-keep set.
        RFESelector(Dummy(), 4.0, candidates=("ipc", "power_per_core"),
                    target_count=1)
    with pytest.raises(DatasetError):
        # Zero targets.
        RFESelector(Dummy(), 4.0, candidates=("ipc", "frac_mem"),
                    target_count=0)


# ---------------------------------------------------------------------------
# Batched importance scoring vs the serial loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scoring_setup():
    rng = np.random.default_rng(0)
    rows, width, classes = 64, 13, 6
    x = rng.normal(size=(rows, width))
    y = rng.integers(0, classes, size=rows)
    model = MLP([width, 20, 20, classes], rng=np.random.default_rng(1))
    return model, x, y


def test_batched_importances_match_serial(scoring_setup):
    model, x, y = scoring_setup
    columns = list(range(1, 13))
    serial_rng = np.random.default_rng(9)
    serial = np.array([
        _permutation_importance(model, x, y, column, serial_rng)
        for column in columns
    ])
    batched = permutation_importances(model, x, y, columns,
                                      np.random.default_rng(9))
    np.testing.assert_array_equal(batched, serial)


def test_batched_consumes_identical_rng_stream(scoring_setup):
    """Both paths must leave the generator in the same state, so mixed
    batched/serial rounds stay on one reproducible stream."""
    model, x, y = scoring_setup
    columns = list(range(1, 13))
    serial_rng = np.random.default_rng(9)
    for column in columns:
        _permutation_importance(model, x, y, column, serial_rng)
    batched_rng = np.random.default_rng(9)
    permutation_importances(model, x, y, columns, batched_rng)
    assert np.array_equal(serial_rng.integers(0, 1 << 30, 16),
                          batched_rng.integers(0, 1 << 30, 16))


def test_batched_importances_reuse_workspace(scoring_setup):
    model, x, y = scoring_setup
    columns = list(range(1, 13))
    workspace = ImportanceWorkspace()
    first = permutation_importances(model, x, y, columns,
                                    np.random.default_rng(9),
                                    workspace=workspace)
    second = permutation_importances(model, x, y, columns,
                                     np.random.default_rng(9),
                                     workspace=workspace)
    np.testing.assert_array_equal(first, second)


def test_batched_importances_chunking_invariant(scoring_setup, monkeypatch):
    """Splitting the stack into chunks must not change any score."""
    model, x, y = scoring_setup
    columns = list(range(1, 13))
    full = permutation_importances(model, x, y, columns,
                                   np.random.default_rng(9))
    monkeypatch.setattr(rfe, "_ROW_BUDGET", x.shape[0] * 2)
    chunked = permutation_importances(model, x, y, columns,
                                      np.random.default_rng(9))
    np.testing.assert_array_equal(full, chunked)


def test_batched_importances_validation(scoring_setup):
    model, x, y = scoring_setup
    rng = np.random.default_rng(0)
    with pytest.raises(DatasetError):
        permutation_importances(model, x, y, [], rng)
    with pytest.raises(DatasetError):
        permutation_importances(model, x, y, [x.shape[1]], rng)
    with pytest.raises(DatasetError):
        permutation_importances(model, x[:, 0], y, [0], rng)


def test_selector_batched_and_serial_agree(small_dataset, small_arch,
                                           monkeypatch):
    """End to end: the selector's stacked scoring picks the same
    features with the same importances as a run whose scorer is the
    per-column reference loop, and the counters land in stats."""
    candidates = ("ipc", "inst_total", "frac_mem", "occupancy",
                  "stall_control", "l1_read_miss")
    config = TrainConfig(epochs=12, patience=4, learning_rate=3e-3, seed=5)

    def run():
        stats = CampaignStats()
        result = RFESelector(
            small_dataset, small_arch.issue_width, candidates=candidates,
            target_count=3, seed=5, train_config=config, stats=stats).run()
        return result, stats

    scored = []

    def per_column(model, x_test, y_test, columns, rng, repeats=3,
                   base=None, workspace=None):
        scored.append(len(columns))
        return np.array([
            _permutation_importance(model, x_test, y_test, column, rng,
                                    repeats=repeats)
            for column in columns
        ])

    batched_result, batched_stats = run()
    monkeypatch.setattr("repro.datagen.rfe.permutation_importances",
                        per_column)
    serial_result, serial_stats = run()
    assert scored == [len(r.features) for r in serial_result.rounds]
    assert batched_result.selected == serial_result.selected
    assert len(batched_result.rounds) == len(serial_result.rounds)
    for b_round, s_round in zip(batched_result.rounds, serial_result.rounds):
        assert b_round.eliminated == s_round.eliminated
        assert b_round.importances.keys() == s_round.importances.keys()
        for name, value in b_round.importances.items():
            assert value == pytest.approx(s_round.importances[name],
                                          abs=1e-12)
    for stats in (batched_stats, serial_stats):
        assert stats.counters["rfe_rounds"] == len(batched_result.rounds)
        assert stats.counters["train_models"] == len(batched_result.rounds)
        assert stats.counters["train_epochs"] > 0
        assert stats.counters["rfe_columns_scored"] == sum(
            len(r.features) for r in batched_result.rounds)
