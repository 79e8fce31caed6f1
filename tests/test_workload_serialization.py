"""Kernel JSON (de)serialization."""

import json

import pytest

from repro.errors import WorkloadError
from repro.gpu.simulator import GPUSimulator
from repro.workloads.serialization import (kernel_from_dict, kernel_to_dict,
                                           load_kernels, phase_from_dict)
from repro.workloads.suites import kernel_by_name
from repro.core.policy import StaticPolicy


def test_phase_round_trip():
    kernel = kernel_by_name("rodinia.hotspot")
    phase = kernel.phases[0]
    payload = json.loads(json.dumps(kernel_to_dict(kernel)))
    restored = phase_from_dict(payload["phases"][0])
    assert restored.instructions == phase.instructions
    assert restored.cpi_exec == pytest.approx(phase.cpi_exec)
    assert restored.mix == pytest.approx(phase.mix)


def test_kernel_round_trip_through_file(tmp_path):
    kernels = [kernel_by_name("rodinia.bfs"), kernel_by_name("parboil.sgemm")]
    path = tmp_path / "kernels.json"
    path.write_text(json.dumps([kernel_to_dict(k) for k in kernels]))
    restored = load_kernels(path)
    assert [k.name for k in restored] == [k.name for k in kernels]
    assert restored[0].total_instructions == kernels[0].total_instructions
    assert restored[1].phases[0].mix == pytest.approx(
        kernels[1].phases[0].mix)


def test_single_object_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(kernel_to_dict(kernel_by_name("rodinia.nw"))))
    restored = load_kernels(path)
    assert len(restored) == 1
    assert restored[0].name == "rodinia.nw"


def test_loaded_kernel_simulates(tmp_path, small_arch):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(
        [kernel_to_dict(kernel_by_name("rodinia.gaussian")
                        .with_iterations(2))]))
    kernel = load_kernels(path)[0]
    result = GPUSimulator(small_arch, kernel, seed=1).run(
        StaticPolicy(5), keep_records=False)
    assert result.time_s > 0


def test_defaults_and_remainder_fill():
    kernel = kernel_from_dict({
        "phases": [{"name": "p", "instructions": 50_000,
                    "mix": {"fp32": 0.3, "load": 0.2}}],
    })
    assert kernel.name == "custom.kernel"
    assert kernel.iterations == 1
    assert sum(kernel.phases[0].mix.values()) == pytest.approx(1.0)


def test_malformed_inputs_rejected(tmp_path):
    with pytest.raises(WorkloadError):
        phase_from_dict({"name": "p"})  # missing instructions
    with pytest.raises(WorkloadError):
        kernel_from_dict({"phases": []})
    with pytest.raises(WorkloadError):
        kernel_from_dict({})
    with pytest.raises(WorkloadError):
        load_kernels(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(WorkloadError):
        load_kernels(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(WorkloadError):
        load_kernels(scalar)


def test_invalid_phase_values_propagate_validation():
    with pytest.raises(WorkloadError):
        kernel_from_dict({
            "phases": [{"name": "p", "instructions": 1000,
                        "mix": {"fp32": 0.5}, "cpi_exec": 0.1}],
        })
