"""Benchmark-suite surrogate (Rodinia / Parboil / PolyBench style)."""

from .generator import random_kernel, random_phase, random_suite
from .serialization import (kernel_from_dict, kernel_to_dict, load_kernels,
                            phase_from_dict, phase_to_dict)
from .suites import (EVALUATION_KERNEL_NAMES, TRAINING_KERNEL_NAMES,
                     estimate_default_duration, evaluation_suite, full_suite,
                     kernel_by_name, scale_kernel_to_duration, training_suite)

__all__ = [
    "random_kernel", "random_phase", "random_suite",
    "kernel_from_dict", "kernel_to_dict", "load_kernels",
    "phase_from_dict", "phase_to_dict",
    "EVALUATION_KERNEL_NAMES", "TRAINING_KERNEL_NAMES",
    "estimate_default_duration", "evaluation_suite", "full_suite",
    "kernel_by_name", "scale_kernel_to_duration", "training_suite",
]
