"""§V-D — hardware implementation cost of the SSMDVFS module.

Regenerates the paper's ASIC analysis for the deployed (pruned) model:
cycles per inference, latency, area scaled 65 nm -> 28 nm, power, and
the share of the 10 us epoch (paper: 192 cycles, 0.16 us, 0.0080 mm^2,
0.0025 W, 1.65 %).  The share of a 250 W TDP is asserted negligible,
not rendered.
"""

from repro.hardware.asic import ASICModel
from repro.evaluation.experiments import run_hardware
from repro.units import us


def test_hardware_asic_cost(pipeline, benchmark):
    model = pipeline.model("pruned")
    result = run_hardware(model, epoch_s=us(10))
    from _reporting import write_result
    write_result("hw_asic", result.render())

    report = result.report
    # Same order of magnitude as the paper on every §V-D quantity.
    assert 50 <= report.cycles_per_inference <= 800       # paper: 192
    assert report.latency_us < 1.0                        # paper: 0.16
    assert 0.001 <= report.area_mm2_scaled <= 0.05        # paper: 0.0080
    assert report.power_w_scaled < 0.05                   # paper: 0.0025
    assert report.epoch_fraction(us(10)) < 0.10           # paper: 1.65 %
    assert report.tdp_fraction(250.0) < 1e-3              # negligible

    # Scaling sanity: 28 nm must be much smaller than the 65 nm block.
    assert report.area_mm2_scaled < report.area_mm2_reference / 2

    # Benchmark: the full analytical cost evaluation.
    asic = ASICModel()
    models = [model.decision_model, model.calibrator_model]
    benchmark(lambda: asic.report(models, sparse=True, node_nm=28))
