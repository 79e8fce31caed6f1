"""GPGPU-Sim surrogate: architecture, kernels, interval model, simulator."""

from .arch import GPUArchConfig, small_test_config, titan_x_config
from .cluster import ClusterState
from .counters import (COUNTER_NAMES, COUNTER_SCHEMA, DIRECT_FEATURE_NAMES,
                       INDIRECT_FEATURE_NAMES, NUM_COUNTERS, PAPER_ALIASES,
                       CounterCategory, CounterSet, paper_category)
from .interval_model import (ThroughputSolution, frequency_sensitivity,
                             solve_throughput)
from .kernels import KernelCursor, KernelProfile
from .noise import WorkloadNoise
from .phases import (INSTRUCTION_CLASSES, Phase, balanced_phase,
                     compute_phase, divergent_phase, make_mix, memory_phase)
from .simulator import (DEFAULT_EPOCH_S, DVFSPolicy, EpochRecord,
                        GPUSimulator, RunResult)
from .vf import (OperatingPoint, VFTable, interpolated_vf_table,
                 titan_x_vf_table)

__all__ = [
    "GPUArchConfig", "small_test_config", "titan_x_config",
    "ClusterState",
    "COUNTER_NAMES", "COUNTER_SCHEMA", "DIRECT_FEATURE_NAMES",
    "INDIRECT_FEATURE_NAMES", "NUM_COUNTERS", "PAPER_ALIASES",
    "CounterCategory", "CounterSet", "paper_category",
    "ThroughputSolution", "frequency_sensitivity", "solve_throughput",
    "KernelCursor", "KernelProfile",
    "WorkloadNoise",
    "INSTRUCTION_CLASSES", "Phase", "balanced_phase", "compute_phase",
    "divergent_phase", "make_mix", "memory_phase",
    "DEFAULT_EPOCH_S", "DVFSPolicy", "EpochRecord", "GPUSimulator",
    "RunResult",
    "OperatingPoint", "VFTable", "interpolated_vf_table",
    "titan_x_vf_table",
]
