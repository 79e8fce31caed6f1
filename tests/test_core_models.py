"""DecisionMaker / Calibrator wrappers and the SSMDVFSModel artefact."""

import numpy as np
import pytest

from repro.errors import ModelError, PolicyError
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.gpu.counters import CounterSet
from repro.nn.losses import softmax
from repro.nn.mlp import MLP
from repro.core.calibrator import Calibrator
from repro.core.combined import SSMDVFSModel
from repro.core.decision_maker import DecisionMaker

FEATURES = ("power_per_core", "ipc", "stall_mem_hazard")


def _fitted_scaler(width):
    return FeatureScaler().fit(np.random.default_rng(0).normal(size=(30, width)))


def _extractor():
    return FeatureExtractor(FEATURES, issue_width=4.0)


def _counters():
    return CounterSet({"power_per_core": 5.0, "ipc": 2.0,
                       "stall_mem_hazard": 1000.0, "issue_slots": 40000.0,
                       "inst_total": 10000.0})


def _decision_maker(num_levels=6):
    model = MLP([len(FEATURES) + 1, 10, num_levels],
                rng=np.random.default_rng(1))
    return DecisionMaker(model, _extractor(), _fitted_scaler(4), num_levels)


def _calibrator():
    model = MLP([len(FEATURES) + 1, 10, 1], rng=np.random.default_rng(2))
    return Calibrator(model, _extractor(), _fitted_scaler(4))


def test_decision_maker_predicts_valid_level():
    dm = _decision_maker()
    level = dm.predict_level(_counters(), preset=0.1)
    assert 0 <= level < 6


def test_decision_maker_batch_matches_single():
    dm = _decision_maker()
    batch = dm.predict_levels([_counters(), _counters()], preset=0.1)
    assert batch == [dm.predict_level(_counters(), 0.1)] * 2


def test_decision_maker_probabilities_sum_to_one():
    dm = _decision_maker()
    probs = softmax(dm.model.forward(dm._input_matrix([_counters()], 0.1)))[0]
    assert probs.shape == (6,)
    assert probs.sum() == pytest.approx(1.0)


def test_decision_maker_shape_contracts():
    model = MLP([99, 10, 6])
    with pytest.raises(PolicyError):
        DecisionMaker(model, _extractor(), _fitted_scaler(4), 6)
    wrong_out = MLP([4, 10, 5])
    with pytest.raises(PolicyError):
        DecisionMaker(wrong_out, _extractor(), _fitted_scaler(4), 6)


def test_decision_maker_rejects_negative_preset():
    with pytest.raises(PolicyError):
        _decision_maker().predict_level(_counters(), -0.1)
    with pytest.raises(PolicyError):
        _decision_maker().predict_levels([], 0.1)


def test_calibrator_prediction_nonnegative():
    cal = _calibrator()
    value = cal.predict_instructions(_counters(), 3)
    assert value >= 0.0


def test_calibrator_prediction_scales_with_current_count():
    cal = _calibrator()
    small = cal.predict_instructions(_counters(), 2)
    counters = _counters()
    counters["inst_total"] = 20_000.0
    big = cal.predict_instructions(counters, 2)
    assert big == pytest.approx(2 * small, rel=1e-9)


def test_calibrator_shape_contracts():
    with pytest.raises(PolicyError):
        Calibrator(MLP([4, 10, 2]), _extractor(), _fitted_scaler(4))
    with pytest.raises(PolicyError):
        Calibrator(MLP([99, 10, 1]), _extractor(), _fitted_scaler(4))


def test_unfitted_scaler_rejected():
    with pytest.raises(PolicyError):
        DecisionMaker(MLP([4, 10, 6]), _extractor(), FeatureScaler(), 6)


def test_ssmdvfs_model_round_trip(tmp_path, small_pipeline):
    model = small_pipeline.model("base")
    model.save(tmp_path / "artefact")
    loaded = SSMDVFSModel.load(tmp_path / "artefact")
    assert loaded.feature_names == model.feature_names
    assert loaded.num_levels == model.num_levels
    assert loaded.metadata["variant"] == "base"
    counters = _counters_from(model)
    assert (loaded.decision_maker.predict_level(counters, 0.1)
            == model.decision_maker.predict_level(counters, 0.1))
    assert loaded.calibrator.predict_instructions(
        counters, 2) == pytest.approx(
        model.calibrator.predict_instructions(counters, 2))


def _counters_from(model):
    values = {name: 1.0 for name in model.feature_names}
    values["issue_slots"] = 40000.0
    values["inst_total"] = 10000.0
    return CounterSet(values)


def test_ssmdvfs_model_load_missing(tmp_path):
    with pytest.raises(ModelError):
        SSMDVFSModel.load(tmp_path / "nothing")


def test_ssmdvfs_model_flops_properties(small_pipeline):
    base = small_pipeline.model("base")
    pruned = small_pipeline.model("pruned")
    assert pruned.flops_sparse < base.flops_dense
    assert base.flops_sparse == base.flops_dense  # unpruned
