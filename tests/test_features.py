"""Feature extraction and scaling."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.gpu.counters import CounterSet


def _counters(inst=10_000.0, slots=40_000.0, ipc=1.0, power=5.0):
    return CounterSet({
        "inst_total": inst,
        "issue_slots": slots,
        "ipc": ipc,
        "power_per_core": power,
        "l1_read_miss_rate": 0.4,
    })


def test_counts_normalised_per_kilocycle():
    extractor = FeatureExtractor(("inst_total",), issue_width=4.0)
    # 10k instructions over 10k cycles -> 1000 per kilocycle.
    assert extractor.extract(_counters())[0] == pytest.approx(1000.0)


def test_rates_pass_through():
    extractor = FeatureExtractor(("ipc", "power_per_core",
                                  "l1_read_miss_rate"), issue_width=4.0)
    values = extractor.extract(_counters(ipc=2.5, power=7.0))
    assert values[0] == pytest.approx(2.5)
    assert values[1] == pytest.approx(7.0)
    assert values[2] == pytest.approx(0.4)


def test_scale_invariance_of_count_features():
    """Twice the epoch (twice counts, twice slots) -> same features."""
    extractor = FeatureExtractor(("inst_total",), issue_width=4.0)
    a = extractor.extract(_counters(inst=10_000, slots=40_000))
    b = extractor.extract(_counters(inst=20_000, slots=80_000))
    assert a[0] == pytest.approx(b[0])


def test_unknown_counter_rejected():
    with pytest.raises(DatasetError):
        FeatureExtractor(("nonsense",))


def test_empty_feature_list_rejected():
    with pytest.raises(DatasetError):
        FeatureExtractor(())


def test_extract_matrix():
    extractor = FeatureExtractor(("ipc",), issue_width=4.0)
    matrix = extractor.extract_matrix([_counters(ipc=1.0), _counters(ipc=2.0)])
    assert matrix.shape == (2, 1)
    with pytest.raises(DatasetError):
        extractor.extract_matrix([])


def test_scaler_standardises():
    rng = np.random.default_rng(0)
    data = rng.normal(loc=5.0, scale=3.0, size=(500, 4))
    scaler = FeatureScaler()
    out = scaler.fit(data).transform(data)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)


def test_scaler_constant_column_safe():
    data = np.ones((10, 2))
    out = FeatureScaler().fit(data).transform(data)
    assert np.isfinite(out).all()


def test_scaler_single_row_transform():
    scaler = FeatureScaler().fit(np.array([[0.0, 10.0], [2.0, 20.0]]))
    row = scaler.transform(np.array([1.0, 15.0]))
    assert row.shape == (2,)
    assert row[0] == pytest.approx(0.0)


def test_scaler_misuse_rejected():
    scaler = FeatureScaler()
    with pytest.raises(DatasetError):
        scaler.transform(np.ones((2, 2)))
    scaler.fit(np.ones((3, 2)))
    with pytest.raises(DatasetError):
        scaler.transform(np.ones((2, 3)))


def test_scaler_round_trip():
    scaler = FeatureScaler().fit(np.random.default_rng(1).normal(size=(20, 3)))
    restored = FeatureScaler.from_arrays({"mean": scaler.mean_,
                                          "std": scaler.std_})
    x = np.random.default_rng(2).normal(size=(5, 3))
    assert np.allclose(scaler.transform(x), restored.transform(x))
