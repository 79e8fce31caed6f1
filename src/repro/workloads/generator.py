"""Randomized kernel generation.

Property-based tests and robustness studies need arbitrary-but-valid
kernels; this module samples them deterministically from an RNG, with
parameter ranges matching the hand-built suites.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..gpu.kernels import KernelProfile
from ..gpu.phases import Phase, make_mix

#: Smallest phase :func:`random_phase` draws (instructions).
MIN_INSTRUCTIONS = 10_000


def random_phase(rng: np.random.Generator, name: str = "rand",
                 max_instructions: int = 400_000) -> Phase:
    """Sample one valid phase."""
    if max_instructions < MIN_INSTRUCTIONS:
        raise WorkloadError("invalid instruction bounds")
    # Sample a memory intensity then build a consistent mix around it.
    load = float(rng.uniform(0.03, 0.32))
    store = float(rng.uniform(0.01, 0.12))
    branch = float(rng.uniform(0.03, 0.22))
    fp32 = float(rng.uniform(0.05, max(0.06, 0.9 - load - store - branch - 0.2)))
    mix = make_mix(fp32=fp32, load=load, store=store, branch=branch,
                   shared=0.05, sync=0.02)
    return Phase(
        name=name,
        instructions=int(rng.integers(MIN_INSTRUCTIONS, max_instructions)),
        mix=mix,
        cpi_exec=float(rng.uniform(1.2, 4.0)),
        mlp=float(rng.uniform(1.0, 6.0)),
        l1_miss_rate=float(rng.uniform(0.05, 0.9)),
        l2_miss_rate=float(rng.uniform(0.1, 0.9)),
        active_warps=float(rng.uniform(8.0, 56.0)),
        divergence=float(rng.uniform(0.0, 0.6)),
    )


def random_kernel(rng: np.random.Generator, name: str = "synthetic.rand",
                  max_phases: int = 4, max_iterations: int = 8,
                  max_instructions: int = 400_000) -> KernelProfile:
    """Sample one valid kernel profile."""
    if max_phases < 1 or max_iterations < 1:
        raise WorkloadError("invalid kernel bounds")
    num_phases = int(rng.integers(1, max_phases + 1))
    phases = [random_phase(rng, name=f"p{i}",
                           max_instructions=max_instructions)
              for i in range(num_phases)]
    return KernelProfile(
        name=name,
        phases=phases,
        iterations=int(rng.integers(1, max_iterations + 1)),
        suite="synthetic",
        jitter=float(rng.uniform(0.0, 0.15)),
    )


def random_suite(seed: int, count: int = 8) -> list[KernelProfile]:
    """A deterministic list of random kernels."""
    if count < 1:
        raise WorkloadError("count must be positive")
    rng = np.random.default_rng(seed)
    return [random_kernel(rng, name=f"synthetic.rand{i}")
            for i in range(count)]
