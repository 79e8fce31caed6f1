"""Benchmark-suite surrogate.

The paper draws "over 20 benchmarks" from Rodinia, Parboil and
PolyBench (§III-A).  Real CUDA binaries cannot run here, so each
benchmark is modelled as a :class:`~repro.gpu.kernels.KernelProfile`
whose phase structure mimics the published characterisation of the
kernel it is named after (compute-bound GEMMs, memory-bound SpMV /
streaming kernels, divergent graph traversals, iterative stencils, ...).

The training / evaluation split follows §V.A: more than half of the
evaluation programs are **not** in the training set, which is what the
generalisation claim is tested against.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..gpu.arch import GPUArchConfig
from ..gpu.interval_model import (PP_INSTRUCTIONS, phase_params_row,
                                  solve_throughput_batch)
from ..gpu.kernels import KernelProfile
from ..gpu.phases import (Phase, balanced_phase, compute_phase,
                          divergent_phase, make_mix, memory_phase)

# Phase instruction counts are per cluster per phase pass.  At the
# default operating point a cluster retires roughly 20-70k
# warp-instructions per 10 us epoch.  The multiplier is tuned so phases
# span several epochs — real GPGPU kernels are near-stationary at 10 us
# granularity, and sub-epoch phases would make the next-window
# prediction problem artificially noisy compared to the paper's setup.
_K = 4000


def _kernel(name: str, suite: str, phases: list[Phase], iterations: int,
            jitter: float = 0.08) -> KernelProfile:
    return KernelProfile(name=f"{suite}.{name}", phases=phases,
                         iterations=iterations, suite=suite, jitter=jitter)


def _rodinia() -> list[KernelProfile]:
    return [
        _kernel("bfs", "rodinia", [
            divergent_phase("frontier-expand", 24 * _K, warps=20, divergence=0.55),
            memory_phase("visit-update", 18 * _K, warps=28, l1_miss=0.7),
        ], iterations=8, jitter=0.12),
        _kernel("hotspot", "rodinia", [
            balanced_phase("stencil-sweep", 56 * _K, warps=44),
            compute_phase("temp-update", 22 * _K, warps=44, cpi=1.8),
        ], iterations=6, jitter=0.06),
        _kernel("kmeans", "rodinia", [
            memory_phase("point-load", 30 * _K, warps=40, l1_miss=0.6),
            compute_phase("distance", 48 * _K, warps=40, cpi=1.6),
            divergent_phase("assign", 10 * _K, warps=32, divergence=0.35),
        ], iterations=5, jitter=0.08),
        _kernel("lud", "rodinia", [
            compute_phase("diagonal", 14 * _K, warps=12, cpi=2.2),
            compute_phase("perimeter", 30 * _K, warps=28, cpi=1.8),
            compute_phase("internal", 64 * _K, warps=52, cpi=1.5),
        ], iterations=4, jitter=0.07),
        _kernel("nw", "rodinia", [
            balanced_phase("wavefront", 26 * _K, warps=18, divergence=0.2),
        ], iterations=14, jitter=0.09),
        _kernel("srad", "rodinia", [
            memory_phase("gradient-load", 22 * _K, warps=40, l1_miss=0.55),
            balanced_phase("diffusion", 40 * _K, warps=40),
        ], iterations=7, jitter=0.06),
        _kernel("backprop", "rodinia", [
            compute_phase("forward", 46 * _K, warps=48, cpi=1.7),
            memory_phase("weight-update", 28 * _K, warps=40, l1_miss=0.5),
        ], iterations=5, jitter=0.07),
        _kernel("gaussian", "rodinia", [
            compute_phase("eliminate", 36 * _K, warps=40, cpi=1.7),
            compute_phase("back-substitute", 14 * _K, warps=16, cpi=2.4),
        ], iterations=6, jitter=0.08),
        _kernel("pathfinder", "rodinia", [
            memory_phase("row-stream", 44 * _K, warps=48, l1_miss=0.72,
                         l2_miss=0.7),
        ], iterations=9, jitter=0.05),
        _kernel("streamcluster", "rodinia", [
            memory_phase("point-stream", 34 * _K, warps=36, l1_miss=0.68),
            divergent_phase("center-select", 14 * _K, warps=24, divergence=0.4),
        ], iterations=7, jitter=0.11),
    ]


def _parboil() -> list[KernelProfile]:
    sfu_heavy = Phase(
        name="qr-trig",
        instructions=52 * _K,
        mix=make_mix(fp32=0.42, sfu=0.18, load=0.06, store=0.02,
                     shared=0.1, branch=0.05, sync=0.02),
        cpi_exec=2.1, mlp=3.0, l1_miss_rate=0.1, l2_miss_rate=0.2,
        active_warps=48.0, divergence=0.04,
    )
    return [
        _kernel("sgemm", "parboil", [
            compute_phase("tile-mac", 90 * _K, warps=56, cpi=1.4,
                          divergence=0.02),
        ], iterations=4, jitter=0.04),
        _kernel("spmv", "parboil", [
            divergent_phase("row-gather", 26 * _K, warps=30, divergence=0.45),
            memory_phase("accumulate", 16 * _K, warps=30, l1_miss=0.75,
                         l2_miss=0.72),
        ], iterations=8, jitter=0.12),
        _kernel("stencil", "parboil", [
            memory_phase("halo-load", 20 * _K, warps=44, l1_miss=0.5),
            balanced_phase("kernel", 38 * _K, warps=44),
        ], iterations=7, jitter=0.06),
        _kernel("histo", "parboil", [
            memory_phase("bin-scatter", 30 * _K, warps=32, l1_miss=0.6,
                         divergence=0.3),
            divergent_phase("merge", 10 * _K, warps=20, divergence=0.4),
        ], iterations=8, jitter=0.1),
        _kernel("mriq", "parboil", [sfu_heavy], iterations=5, jitter=0.04),
        _kernel("cutcp", "parboil", [
            compute_phase("lattice", 70 * _K, warps=52, cpi=1.5),
            balanced_phase("bin-walk", 20 * _K, warps=40),
        ], iterations=4, jitter=0.06),
        _kernel("lbm", "parboil", [
            memory_phase("collide-stream", 58 * _K, warps=48, l1_miss=0.78,
                         l2_miss=0.75),
        ], iterations=6, jitter=0.05),
        _kernel("sad", "parboil", [
            balanced_phase("block-search", 42 * _K, warps=44, divergence=0.15),
            compute_phase("reduce", 12 * _K, warps=36, cpi=1.9),
        ], iterations=6, jitter=0.07),
    ]


def _polybench() -> list[KernelProfile]:
    return [
        _kernel("2mm", "polybench", [
            compute_phase("mm1", 58 * _K, warps=52, cpi=1.5),
            compute_phase("mm2", 58 * _K, warps=52, cpi=1.5),
        ], iterations=3, jitter=0.04),
        _kernel("3mm", "polybench", [
            compute_phase("mm1", 44 * _K, warps=52, cpi=1.5),
            compute_phase("mm2", 44 * _K, warps=52, cpi=1.5),
            compute_phase("mm3", 44 * _K, warps=52, cpi=1.5),
        ], iterations=3, jitter=0.04),
        _kernel("atax", "polybench", [
            memory_phase("ax", 26 * _K, warps=40, l1_miss=0.66),
            memory_phase("aty", 26 * _K, warps=40, l1_miss=0.66),
        ], iterations=6, jitter=0.06),
        _kernel("bicg", "polybench", [
            memory_phase("q-update", 24 * _K, warps=40, l1_miss=0.64),
            memory_phase("s-update", 24 * _K, warps=40, l1_miss=0.64),
        ], iterations=6, jitter=0.06),
        _kernel("mvt", "polybench", [
            memory_phase("x1", 30 * _K, warps=44, l1_miss=0.6),
            memory_phase("x2", 30 * _K, warps=44, l1_miss=0.6),
        ], iterations=5, jitter=0.05),
        _kernel("gemm", "polybench", [
            compute_phase("mac", 96 * _K, warps=56, cpi=1.4, divergence=0.02),
        ], iterations=4, jitter=0.03),
        _kernel("gesummv", "polybench", [
            memory_phase("summv", 42 * _K, warps=44, l1_miss=0.7, l2_miss=0.68),
        ], iterations=7, jitter=0.05),
        _kernel("correlation", "polybench", [
            memory_phase("mean-load", 18 * _K, warps=40, l1_miss=0.55),
            compute_phase("corr", 40 * _K, warps=44, cpi=1.7),
            balanced_phase("normalize", 16 * _K, warps=40),
        ], iterations=5, jitter=0.07),
        _kernel("syrk", "polybench", [
            compute_phase("rank-update", 72 * _K, warps=52, cpi=1.5),
        ], iterations=4, jitter=0.04),
        _kernel("fdtd2d", "polybench", [
            memory_phase("ey-update", 22 * _K, warps=44, l1_miss=0.58),
            memory_phase("ex-update", 22 * _K, warps=44, l1_miss=0.58),
            balanced_phase("hz-update", 24 * _K, warps=44),
        ], iterations=5, jitter=0.06),
    ]


def full_suite() -> list[KernelProfile]:
    """All modelled benchmarks (28 kernels across the three suites)."""
    return _rodinia() + _parboil() + _polybench()


#: Kernels used to build the training dataset (§III-A: "over 20
#: benchmarks").  The remaining kernels are reserved for evaluation.
TRAINING_KERNEL_NAMES: tuple[str, ...] = (
    "rodinia.hotspot", "rodinia.kmeans", "rodinia.lud", "rodinia.srad",
    "rodinia.backprop", "rodinia.pathfinder", "rodinia.streamcluster",
    "parboil.sgemm", "parboil.stencil", "parboil.histo", "parboil.lbm",
    "parboil.sad",
    "polybench.2mm", "polybench.atax", "polybench.mvt", "polybench.gemm",
    "polybench.correlation", "polybench.fdtd2d",
)

#: Kernels used for full-system evaluation (§V.A).  10 of 14 are unseen
#: during training, satisfying the "> 50 % not in the training set" rule.
EVALUATION_KERNEL_NAMES: tuple[str, ...] = (
    # unseen during training (10):
    "rodinia.bfs", "rodinia.nw", "rodinia.gaussian",
    "parboil.spmv", "parboil.mriq", "parboil.cutcp",
    "polybench.3mm", "polybench.bicg", "polybench.gesummv",
    "polybench.syrk",
    # seen during training (4):
    "rodinia.hotspot", "parboil.sgemm", "polybench.atax",
    "polybench.correlation",
)


def kernel_by_name(name: str) -> KernelProfile:
    """Look up a kernel profile by its full ``suite.name``."""
    for kernel in full_suite():
        if kernel.name == name:
            return kernel
    raise WorkloadError(f"unknown kernel {name!r}")


def training_suite() -> list[KernelProfile]:
    """Kernels the dataset is generated from."""
    return [kernel_by_name(name) for name in TRAINING_KERNEL_NAMES]


def evaluation_suite() -> list[KernelProfile]:
    """Kernels the full-system comparison runs on."""
    return [kernel_by_name(name) for name in EVALUATION_KERNEL_NAMES]


def estimate_default_duration(kernel: KernelProfile,
                              arch: GPUArchConfig) -> float:
    """Noiseless estimate of the kernel's runtime at the default V/f."""
    params = np.stack([phase_params_row(phase) for phase in kernel.phases])
    frequencies = np.full(len(params), arch.default_frequency_hz)
    ones = np.ones(len(params))
    batch = solve_throughput_batch(arch, params, frequencies, ones, ones, ones)
    times = (params[:, PP_INSTRUCTIONS] / batch.ipc) / frequencies
    # A sequential sum: np.sum's pairwise grouping would round differently.
    total = 0.0
    for seconds in times.tolist():
        total += seconds
    return total * kernel.iterations


def scale_kernel_to_duration(kernel: KernelProfile, arch: GPUArchConfig,
                             duration_s: float) -> KernelProfile:
    """Rescale a kernel's iteration count toward a target duration.

    Used to build the ~0.0003 s evaluation programs of §V.A ("we limit
    the execution time of programs to approximately 0.0003 s").
    """
    if duration_s <= 0:
        raise WorkloadError("target duration must be positive")
    one_iteration = estimate_default_duration(kernel.with_iterations(1), arch)
    iterations = max(1, round(duration_s / one_iteration))
    return kernel.with_iterations(iterations)
