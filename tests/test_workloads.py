"""Benchmark-suite surrogate."""

import pytest

from repro.errors import WorkloadError
from repro.gpu.arch import titan_x_config
from repro.workloads.suites import (EVALUATION_KERNEL_NAMES,
                                    TRAINING_KERNEL_NAMES,
                                    estimate_default_duration,
                                    evaluation_suite, full_suite,
                                    kernel_by_name, scale_kernel_to_duration,
                                    training_suite)

ARCH = titan_x_config()


def test_full_suite_has_more_than_20_benchmarks():
    """Paper §III-A: 'over 20 benchmarks'."""
    assert len(full_suite()) > 20


def test_suites_cover_three_origins():
    suites = {k.suite for k in full_suite()}
    assert suites == {"rodinia", "parboil", "polybench"}


def test_kernel_names_unique():
    names = [k.name for k in full_suite()]
    assert len(set(names)) == len(names)


def test_training_and_eval_names_exist():
    for name in TRAINING_KERNEL_NAMES + EVALUATION_KERNEL_NAMES:
        kernel_by_name(name)  # raises if missing


def test_unknown_kernel_rejected():
    with pytest.raises(WorkloadError):
        kernel_by_name("rodinia.nonexistent")


def test_majority_of_eval_kernels_unseen():
    """Paper §V.A: > 50 % of eval programs not in the training set."""
    seen = set(TRAINING_KERNEL_NAMES)
    unseen = [name for name in EVALUATION_KERNEL_NAMES if name not in seen]
    assert len(unseen) / len(EVALUATION_KERNEL_NAMES) > 0.5


def test_training_suite_size():
    assert len(training_suite()) == len(TRAINING_KERNEL_NAMES) >= 12


def test_all_kernels_have_valid_durations():
    for kernel in full_suite():
        duration = estimate_default_duration(kernel, ARCH)
        assert 20e-6 < duration < 5e-3, kernel.name


def test_scale_kernel_to_duration():
    kernel = kernel_by_name("rodinia.pathfinder")
    scaled = scale_kernel_to_duration(kernel, ARCH, 300e-6)
    duration = estimate_default_duration(scaled, ARCH)
    one_iter = estimate_default_duration(kernel.with_iterations(1), ARCH)
    assert abs(duration - 300e-6) <= one_iter  # within one iteration


def test_scale_rejects_bad_duration():
    with pytest.raises(WorkloadError):
        scale_kernel_to_duration(kernel_by_name("rodinia.bfs"), ARCH, 0.0)


def test_suite_diversity_compute_vs_memory():
    """The suite must span compute-bound and memory-bound kernels."""
    from repro.gpu.interval_model import frequency_sensitivity
    f_hi = ARCH.vf_table[5].frequency_hz
    f_lo = ARCH.vf_table[0].frequency_hz
    sensitivities = []
    for kernel in full_suite():
        phase = kernel.phases[0]
        sensitivities.append(frequency_sensitivity(ARCH, phase, f_hi, f_lo))
    assert min(sensitivities) < 1.1    # some memory-bound
    assert max(sensitivities) > 1.5    # some compute-bound


def test_eval_suite_returns_profiles():
    suite = evaluation_suite()
    assert len(suite) == len(EVALUATION_KERNEL_NAMES)
