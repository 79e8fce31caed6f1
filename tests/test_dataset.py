"""DVFSDataset: construction, splits, oracle, serialization."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.datagen.dataset import DVFSDataset
from repro.gpu.counters import COUNTER_NAMES


def test_built_from_real_breakpoints(small_dataset):
    # 4 kernels x 5 breakpoints, each with 6 feature-window variants.
    assert small_dataset.num_groups == 20
    assert small_dataset.num_breakpoints == 120
    assert small_dataset.num_samples == 720  # x 6 levels each
    assert small_dataset.num_levels == 6


def test_counter_set_round_trip(small_dataset):
    counters = small_dataset.counter_set(0)
    assert counters.as_vector().tolist() == small_dataset.counters[0].tolist()
    with pytest.raises(DatasetError):
        small_dataset.counter_set(999)


def test_oracle_level_monotone_in_preset(small_dataset):
    for bp in range(small_dataset.num_breakpoints):
        assert (small_dataset.oracle_level(bp, 0.05)
                >= small_dataset.oracle_level(bp, 0.30))


def test_prepare_shapes(small_dataset, small_arch):
    from repro.datagen.dataset import DEFAULT_PRESET_GRID
    names = ("power_per_core", "ipc", "stall_mem_hazard")
    prepared = small_dataset.prepare(names, small_arch.issue_width, seed=0)
    decision_total = (prepared.decision.x_train.shape[0]
                      + prepared.decision.x_test.shape[0])
    assert decision_total == (small_dataset.num_breakpoints
                              * len(DEFAULT_PRESET_GRID))
    calib_total = (prepared.calibrator.x_train.shape[0]
                   + prepared.calibrator.x_test.shape[0])
    assert calib_total == small_dataset.num_samples
    assert prepared.decision.x_train.shape[1] == len(names) + 1
    assert prepared.calibrator.x_train.shape[1] == len(names) + 1
    assert prepared.num_levels == 6


def test_prepare_applied_labeling_matches_samples(small_dataset, small_arch):
    prepared = small_dataset.prepare(("ipc",), small_arch.issue_width,
                                     seed=0, labeling="applied")
    total = (prepared.decision.x_train.shape[0]
             + prepared.decision.x_test.shape[0])
    assert total == small_dataset.num_samples


def test_prepare_rejects_unknown_labeling(small_dataset, small_arch):
    with pytest.raises(DatasetError):
        small_dataset.prepare(("ipc",), small_arch.issue_width,
                              labeling="nonsense")


def test_minimal_labels_monotone_in_preset(small_dataset):
    for record in range(0, small_dataset.num_breakpoints, 7):
        assert (small_dataset.minimal_level_for_record(record, 0.02)
                >= small_dataset.minimal_level_for_record(record, 0.25))


def _reference_minimal_arrays(dataset, feats, preset_grid):
    """Per-(record, preset) loop over ``minimal_level_for_record``."""
    rows, labels, groups = [], [], []
    for record in range(dataset.num_breakpoints):
        for preset in preset_grid:
            rows.append(np.concatenate([feats[record], [preset]]))
            labels.append(dataset.minimal_level_for_record(record, preset))
            groups.append(dataset.record_group[record])
    return np.stack(rows), np.array(labels), np.array(groups)


def _assert_minimal_arrays_match_reference(dataset, preset_grid):
    feats = np.random.default_rng(3).normal(
        size=(dataset.num_breakpoints, 4))
    got = dataset._decision_arrays(feats, "minimal", preset_grid)
    want = _reference_minimal_arrays(dataset, feats, preset_grid)
    for array, expected in zip(got, want):
        assert array.dtype == expected.dtype
        np.testing.assert_array_equal(array, expected)


def test_minimal_labels_match_per_record_reference(small_dataset):
    from repro.datagen.dataset import DEFAULT_PRESET_GRID
    _assert_minimal_arrays_match_reference(small_dataset,
                                           DEFAULT_PRESET_GRID)


def test_minimal_labels_match_reference_on_shuffled_samples():
    """Samples out of record order, uneven sample counts, levels out of
    order, and presets under every loss (no level fits: the label is
    the record's highest level)."""
    rng = np.random.default_rng(8)
    n_records = 9
    sample_bp = rng.permutation(np.concatenate(
        [np.arange(n_records), rng.integers(0, n_records, size=40)]))
    dataset = DVFSDataset(
        np.zeros((n_records, len(COUNTER_NAMES))), ["k"] * n_records,
        sample_bp, rng.integers(0, 6, size=sample_bp.size),
        rng.uniform(0.0, 0.4, size=sample_bp.size),
        np.ones(sample_bp.size),
        record_group=np.arange(n_records) // 3)
    _assert_minimal_arrays_match_reference(
        dataset, (-1.0, 0.0, 0.05, 0.2, 0.39, 1.0))
    dataset.sample_breakpoint[dataset.sample_breakpoint == 4] = 5
    with pytest.raises(DatasetError):
        dataset._decision_arrays(np.zeros((n_records, 1)), "minimal", (0.1,))


def test_prepare_splits_by_physical_breakpoint(small_dataset, small_arch):
    """Test rows must be whole physical breakpoints (6 window variants x
    8 grid presets = 48 decision rows each), else labels leak."""
    prepared = small_dataset.prepare(("ipc",), small_arch.issue_width, seed=1)
    assert prepared.decision.x_test.shape[0] % 48 == 0


def test_prepare_scaling_applied(small_dataset, small_arch):
    prepared = small_dataset.prepare(("ipc", "power_per_core"),
                                     small_arch.issue_width, seed=0)
    means = prepared.decision.x_train.mean(axis=0)
    assert np.all(np.abs(means) < 0.5)  # roughly centred


def test_calibrator_targets_are_throughput_ratios(small_dataset, small_arch):
    ratios = small_dataset.throughput_ratios()
    assert ratios.min() >= 0.0
    assert 0.3 < np.median(ratios) < 3.0  # scale-free, O(1) targets
    prepared = small_dataset.prepare(("ipc",), small_arch.issue_width, seed=0)
    total = (prepared.calibrator.y_train.shape[0]
             + prepared.calibrator.y_test.shape[0])
    assert total == ratios.shape[0]


def test_prepare_rejects_bad_fraction(small_dataset, small_arch):
    with pytest.raises(DatasetError):
        small_dataset.prepare(("ipc",), small_arch.issue_width,
                              test_fraction=0.0)


def test_save_load_round_trip(small_dataset, tmp_path):
    path = tmp_path / "ds.npz"
    small_dataset.save(path)
    loaded = DVFSDataset.load(path)
    assert loaded.num_breakpoints == small_dataset.num_breakpoints
    assert np.allclose(loaded.counters, small_dataset.counters)
    assert loaded.kernel_names == small_dataset.kernel_names
    assert np.allclose(loaded.sample_loss, small_dataset.sample_loss)


def test_load_missing_file():
    with pytest.raises(DatasetError):
        DVFSDataset.load("/nonexistent/ds.npz")


def test_constructor_validation():
    good = np.zeros((2, len(COUNTER_NAMES)))
    with pytest.raises(DatasetError):
        DVFSDataset(np.zeros((2, 3)), ["a", "b"], np.array([0]),
                    np.array([0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(DatasetError):
        DVFSDataset(good, ["a"], np.array([0]), np.array([0]),
                    np.array([0.0]), np.array([0.0]))
    with pytest.raises(DatasetError):
        DVFSDataset(good, ["a", "b"], np.array([5]), np.array([0]),
                    np.array([0.0]), np.array([0.0]))


def test_losses_have_learnable_spread(small_dataset):
    """Sanity: the task is non-trivial (losses vary across levels)."""
    losses = small_dataset.sample_loss
    assert losses.max() > 0.15
    assert losses.min() < 0.02
