"""ASIC cost model (§V-D) and technology scaling."""

import pytest

from repro.errors import HardwareModelError
from repro.hardware import asic as asic_module
from repro.hardware.asic import ASICModel
from repro.hardware.scaling import scale_area, scale_energy, supported_nodes
from repro.nn.mlp import MLP
from repro.nn.prune import prune_model
from repro.units import us


def _paper_like_models():
    """Compressed-scale Decision/Calibrator pair (3+2 layers of 12)."""
    decision = MLP([6, 12, 12, 12, 6])
    calibrator = MLP([7, 12, 12, 1])
    return [decision, calibrator]


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def test_scaling_reference_is_identity():
    assert scale_area(1.0, 65, 65) == pytest.approx(1.0)
    assert scale_energy(1.0, 65, 65) == pytest.approx(1.0)


def test_scaling_shrinks_toward_smaller_nodes():
    assert scale_area(1.0, 65, 28) < 0.5
    assert scale_energy(1.0, 65, 28) < 0.5
    assert scale_area(1.0, 65, 90) > 1.0


def test_scaling_is_transitive():
    via_45 = scale_area(scale_area(1.0, 65, 45), 45, 28)
    direct = scale_area(1.0, 65, 28)
    assert via_45 == pytest.approx(direct)


def test_unknown_node_rejected():
    with pytest.raises(HardwareModelError):
        scale_area(1.0, 65, 10)
    assert 28 in supported_nodes()


def test_negative_values_rejected():
    with pytest.raises(HardwareModelError):
        scale_area(-1.0, 65, 28)
    with pytest.raises(HardwareModelError):
        scale_energy(-1.0, 65, 28)


# ---------------------------------------------------------------------------
# ASIC model
# ---------------------------------------------------------------------------

def test_cycles_scale_with_model_size():
    asic = ASICModel()
    small = [MLP([4, 8, 2])]
    large = [MLP([4, 64, 64, 2])]
    assert (asic.cycles_per_inference(small)
            < asic.cycles_per_inference(large))


def test_more_macs_fewer_cycles(monkeypatch):
    models = _paper_like_models()
    one = ASICModel().cycles_per_inference(models)
    monkeypatch.setattr(asic_module, "NUM_MACS", 4)
    four = ASICModel().cycles_per_inference(models)
    assert four < one


def test_sparsity_reduces_cycles_and_energy():
    asic = ASICModel()
    models = _paper_like_models()
    dense_cycles = asic.cycles_per_inference(models, sparse=False)
    for model in models:
        prune_model(model, 0.6, 0.9)
    sparse_cycles = asic.cycles_per_inference(models, sparse=True)
    assert sparse_cycles < dense_cycles
    assert (asic.energy_per_inference_j(models, sparse=True)
            < asic.energy_per_inference_j(models, sparse=False))


def test_report_paper_scale_numbers():
    """The compressed module must land in the paper's §V-D ballpark:
    a few hundred cycles, well under a mm^2, milliwatt-class power."""
    models = _paper_like_models()
    for model in models:
        prune_model(model, 0.6, 0.9)
    report = ASICModel().report(models, sparse=True, node_nm=28)
    assert 50 <= report.cycles_per_inference <= 800
    assert report.latency_us < 1.0
    assert report.area_mm2_scaled < 0.1
    assert report.power_w_scaled < 0.1
    assert report.epoch_fraction(us(10)) < 0.10
    assert report.tdp_fraction(250.0) < 1e-3


def test_area_scaled_smaller_than_reference():
    report = ASICModel().report(_paper_like_models(), node_nm=28)
    assert report.area_mm2_scaled < report.area_mm2_reference


def test_report_fraction_validation():
    report = ASICModel().report(_paper_like_models())
    with pytest.raises(HardwareModelError):
        report.epoch_fraction(0.0)
    with pytest.raises(HardwareModelError):
        report.tdp_fraction(0.0)


def test_empty_model_list_rejected():
    with pytest.raises(HardwareModelError):
        ASICModel().cycles_per_inference([])
