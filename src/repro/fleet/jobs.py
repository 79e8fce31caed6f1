"""Arrival-trace-driven job streams for the fleet simulator.

A fleet serves two broad classes of work: **latency-sensitive** jobs
(short kernels with tight deadlines — the interactive traffic the SLO
is written for) and **throughput** jobs (longer kernels whose deadlines
mostly guard against starvation).  :func:`build_trace` materialises a
deterministic stream of :class:`Job` records from a seeded
:class:`TraceConfig`: arrival times follow one of the builtin shapes
(Poisson ``steady``, clustered ``burst``, sinusoidally modulated
``diurnal``), each job draws a kernel from its class's duration-scaled
pool, and its deadline is its arrival time plus a per-class multiple of
the noiseless service estimate.

The offered load is expressed as a fraction of fleet capacity: a
``load`` of 0.7 over ``nodes`` GPUs sets the mean arrival rate to 70 %
of what the fleet could serve if every node were busy back to back, so
the same trace config scales from 4 simulated GPUs to hundreds without
retuning arrival rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FleetError
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..workloads.suites import (estimate_default_duration, evaluation_suite,
                                scale_kernel_to_duration)

#: Job classes of the fleet workload model.
LATENCY = "latency"
THROUGHPUT = "throughput"
JOB_CLASSES = (LATENCY, THROUGHPUT)

#: Builtin arrival-trace shapes accepted by :func:`build_trace`.
BUILTIN_TRACES = ("steady", "burst", "diurnal")

#: Deadline = arrival + factor x expected service, per job class.  Both
#: factors exceed 1: a deadline below the service estimate is unmeetable.
LATENCY_DEADLINE_FACTOR = 2.5
THROUGHPUT_DEADLINE_FACTOR = 8.0
#: Near-simultaneous arrivals per burst of the "burst" trace.
BURST_SIZE = 8
#: Rate cycles over the horizon of the "diurnal" trace.
DIURNAL_PERIODS = 2.0


@dataclass(frozen=True)
class Job:
    """One unit of fleet work: a kernel with an arrival and a deadline."""

    job_id: int
    name: str
    job_class: str
    kernel: KernelProfile
    arrival_s: float
    expected_s: float
    deadline_s: float

    @property
    def slack_s(self) -> float:
        """Deadline headroom beyond the noiseless service estimate."""
        return self.deadline_s - self.arrival_s - self.expected_s


@dataclass(frozen=True)
class TraceConfig:
    """Declarative description of one arrival trace.

    ``load`` is the offered load as a fraction of the fleet's back-to-
    back service capacity over ``nodes`` GPUs; values above 1 oversubscribe
    the fleet and force queueing (and, eventually, SLO violations).
    ``latency_fraction`` is the probability a job is latency-sensitive.
    Deadlines are ``arrival + factor * expected_service`` per class
    (:data:`LATENCY_DEADLINE_FACTOR`, :data:`THROUGHPUT_DEADLINE_FACTOR`).
    """

    trace: str = "steady"
    jobs: int = 64
    nodes: int = 16
    load: float = 0.7
    latency_fraction: float = 0.6
    latency_duration_s: float = 100e-6
    throughput_duration_s: float = 400e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trace not in BUILTIN_TRACES:
            raise FleetError(f"unknown trace {self.trace!r}; "
                             f"expected one of {BUILTIN_TRACES}")
        if self.jobs < 1:
            raise FleetError("a trace needs at least one job")
        if self.nodes < 1:
            raise FleetError("a trace needs at least one node")
        if self.load <= 0.0:
            raise FleetError("offered load must be positive")
        if not 0.0 <= self.latency_fraction <= 1.0:
            raise FleetError("latency_fraction must be in [0, 1]")
        if self.latency_duration_s <= 0 or self.throughput_duration_s <= 0:
            raise FleetError("job durations must be positive")


def _kernel_pool(arch: GPUArchConfig,
                 duration_s: float) -> list[tuple[KernelProfile, float]]:
    """(scaled kernel, noiseless service estimate) pairs for one class,
    over the whole evaluation suite."""
    pool = []
    for kernel in evaluation_suite():
        scaled = scale_kernel_to_duration(kernel, arch, duration_s)
        pool.append((scaled, estimate_default_duration(scaled, arch)))
    return pool


def _arrival_gaps(config: TraceConfig, rng: np.random.Generator,
                  mean_gap_s: float) -> np.ndarray:
    """Inter-arrival gaps of the configured trace shape (seconds)."""
    if config.trace == "steady":
        return rng.exponential(mean_gap_s, size=config.jobs)
    if config.trace == "burst":
        # Bursts of BURST_SIZE near-simultaneous arrivals separated by
        # compensating idle gaps, preserving the configured mean rate.
        gaps = np.empty(config.jobs)
        for index in range(config.jobs):
            if index % BURST_SIZE == 0 and index > 0:
                gaps[index] = rng.exponential(mean_gap_s * BURST_SIZE)
            else:
                gaps[index] = rng.exponential(mean_gap_s * 0.05)
        return gaps
    # Diurnal: a sinusoid modulates the instantaneous rate between
    # 0.25x and 1.75x the mean over DIURNAL_PERIODS cycles.
    horizon = mean_gap_s * config.jobs
    gaps = np.empty(config.jobs)
    now = 0.0
    for index in range(config.jobs):
        phase = 2.0 * math.pi * DIURNAL_PERIODS * now / horizon
        rate_scale = 1.0 + 0.75 * math.sin(phase)
        gaps[index] = rng.exponential(mean_gap_s / max(rate_scale, 0.25))
        now += gaps[index]
    return gaps


def build_trace(arch: GPUArchConfig, config: TraceConfig) -> list[Job]:
    """Materialise a deterministic job stream from a trace config.

    The same ``(arch, config)`` pair always yields the identical job
    list — arrivals, classes, kernels and deadlines — which is what
    makes a fleet replay reproducible end to end.
    """
    rng = np.random.default_rng(config.seed)
    latency_pool = _kernel_pool(arch, config.latency_duration_s)
    throughput_pool = _kernel_pool(arch, config.throughput_duration_s)

    mean_service = (
        config.latency_fraction
        * float(np.mean([s for _, s in latency_pool]))
        + (1.0 - config.latency_fraction)
        * float(np.mean([s for _, s in throughput_pool])))
    # Offered load: arrivals per second = load * fleet service rate.
    mean_gap_s = mean_service / (config.nodes * config.load)
    gaps = _arrival_gaps(config, rng, mean_gap_s)

    jobs: list[Job] = []
    arrival = 0.0
    for job_id in range(config.jobs):
        arrival += float(gaps[job_id])
        if rng.random() < config.latency_fraction:
            job_class = LATENCY
            pool = latency_pool
            factor = LATENCY_DEADLINE_FACTOR
        else:
            job_class = THROUGHPUT
            pool = throughput_pool
            factor = THROUGHPUT_DEADLINE_FACTOR
        kernel, expected_s = pool[int(rng.integers(len(pool)))]
        jobs.append(Job(
            job_id=job_id,
            name=f"{job_class[:3]}-{job_id:04d}.{kernel.name}",
            job_class=job_class,
            kernel=kernel,
            arrival_s=arrival,
            expected_s=expected_s,
            deadline_s=arrival + factor * expected_s,
        ))
    return jobs
