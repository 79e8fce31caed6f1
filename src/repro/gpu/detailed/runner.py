"""Cross-substrate policy validation.

Drives any DVFS policy on the *per-cycle* detailed model instead of the
interval model: each "epoch" simulates a fixed number of core cycles on
one SM, produces a policy-compatible :class:`EpochRecord` (the 47
counters synthesised from the detailed statistics plus the power
model), and feeds the policy's decision back as the next window's
frequency.

This is the transfer study the reproduction owes its readers: the
SSMDVFS models are *trained* on interval-model data, so running the
controller here checks that the learned mapping is a property of the
physics, not of the substrate that generated the dataset.

One detailed epoch is ~10^4x more expensive than an interval epoch, so
this runner is for validation windows, not experiment campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...power.model import PowerModel
from ..arch import GPUArchConfig
from ..cluster import (A_BUSY_S, A_CLASS0, A_CYCLES, A_DRAM_BYTES,
                       A_INSTRUCTIONS, A_ISSUE_SLOTS, A_L1_READ_ACCESS,
                       A_L1_READ_MISS, A_L2_ACCESS, A_L2_MISS,
                       A_STALL_DATA, A_STALL_MEM_LOAD, A_STALL_MEM_OTHER,
                       A_WARP_INST, NUM_ACTIVITY_SLOTS,
                       build_counters_matrix, fill_power_columns)
from ..counters import CounterSet
from ..kernels import KernelProfile
from ..phases import INSTRUCTION_CLASSES
from ..simulator import EpochRecord
from .sm import DetailedResult, DetailedSM

#: Core cycles one detailed epoch simulates at the chosen operating point.
EPOCH_CYCLES = 2000


def counters_from_detailed(result: DetailedResult, arch: GPUArchConfig,
                           frequency_hz: float, voltage_v: float,
                           power_model: PowerModel,
                           l2_miss_rate: float) -> CounterSet:
    """Synthesise the 47-counter schema from detailed-SM statistics.

    The statistics fill one activity vector, which then goes through
    the same counter build and power evaluation as an interval-model
    epoch.  Stall attribution is coarser than the interval model's (the
    detailed model only observes empty-issue cycles), so stall slots
    are derived from the issue-slot deficit with the memory share taken
    from the cache statistics.
    """
    duration_s = result.cycles / frequency_hz
    instructions = float(result.instructions)
    activity = np.zeros((1, NUM_ACTIVITY_SLOTS), dtype=np.float64)
    a = activity[0]
    a[A_BUSY_S] = duration_s
    a[A_CYCLES] = float(result.cycles)
    a[A_INSTRUCTIONS] = instructions
    for offset, cls in enumerate(INSTRUCTION_CLASSES):
        a[A_CLASS0 + offset] = float(result.inst_by_class.get(cls, 0))
    issue_slots = result.cycles * arch.issue_width
    a[A_ISSUE_SLOTS] = issue_slots
    slots_deficit = max(0.0, issue_slots - instructions)
    # Memory share of the stall deficit from observed cache behaviour.
    loads = float(result.inst_by_class.get("load", 0))
    stores = float(result.inst_by_class.get("store", 0))
    mem_weight = (loads + 0.45 * stores) * (1.0 + 2.0 * result.l1_miss_rate)
    other_weight = max(1.0, instructions - loads - stores)
    mem_share = mem_weight / (mem_weight + 0.15 * other_weight)
    a[A_STALL_MEM_LOAD] = slots_deficit * mem_share * (
        loads / max(1.0, loads + stores))
    a[A_STALL_MEM_OTHER] = slots_deficit * mem_share * (
        stores / max(1.0, loads + stores))
    a[A_STALL_DATA] = slots_deficit * (1.0 - mem_share)
    a[A_L1_READ_ACCESS] = float(result.l1_accesses)
    a[A_L1_READ_MISS] = float(result.l1_misses)
    a[A_L2_ACCESS] = float(result.l1_misses)
    a[A_L2_MISS] = float(result.l1_misses) * l2_miss_rate
    a[A_DRAM_BYTES] = float(result.dram_bytes)
    a[A_WARP_INST] = instructions * 32.0

    matrix = build_counters_matrix(activity, arch)
    fill_power_columns(matrix, activity, power_model,
                       np.array([duration_s]), np.array([voltage_v]))
    return CounterSet.from_vector(matrix[0])


@dataclass
class DetailedRunResult:
    """Outcome of a detailed-substrate policy run."""

    policy_name: str
    kernel_name: str
    time_s: float
    energy_j: float
    instructions: float
    levels: list[int] = field(default_factory=list)

    @property
    def edp(self) -> float:
        """Energy-delay product."""
        return self.energy_j * self.time_s


class _ClusterStub:
    """Never-finished cluster stand-in for the policy shim."""

    finished = False


class _PolicyShim:
    """Minimal simulator facade so policies can reset/calibrate.

    Policies only touch ``arch``, ``clusters[i].finished`` and
    ``set_all_levels`` — everything else stays on the real simulator.
    """

    def __init__(self, arch: GPUArchConfig) -> None:
        self.arch = arch
        self.clusters = [_ClusterStub()]

    def set_all_levels(self, level: int) -> None:
        """No-op: the runner applies decisions itself."""


class DetailedClusterRunner:
    """Run a policy on one detailed SM for a fixed instruction budget.

    The kernel's phases are walked in order; each epoch simulates
    :data:`EPOCH_CYCLES` core cycles at the policy's chosen operating
    point.
    """

    def __init__(self, arch: GPUArchConfig, kernel: KernelProfile,
                 seed: int = 0) -> None:
        self.arch = arch
        self.kernel = kernel
        self.power_model = PowerModel.scaled_for(1)
        self.seed = seed

    def run(self, policy, max_epochs: int = 200) -> DetailedRunResult:
        """Execute until the kernel's instruction budget is consumed."""
        table = self.arch.vf_table
        level = table.default_level
        policy.reset(_PolicyShim(self.arch))
        segment = 0
        done_in_segment = 0.0
        time_s = 0.0
        energy_j = 0.0
        instructions = 0.0
        levels: list[int] = []
        epoch_index = 0
        sm: DetailedSM | None = None
        sm_level = -1

        while segment < self.kernel.num_segments:
            if epoch_index >= max_epochs:
                break
            phase = self.kernel.segment(segment)
            point = table[level]
            if sm is None or sm_level != level:
                sm = DetailedSM(self.arch, phase, point.frequency_hz,
                                seed=self.seed + segment)
                sm_level = level
            result = sm.run(EPOCH_CYCLES)
            counters = counters_from_detailed(
                result, self.arch, point.frequency_hz, point.voltage_v,
                self.power_model, phase.l2_miss_rate)
            duration = EPOCH_CYCLES / point.frequency_hz
            time_s += duration
            energy_j += counters["energy_epoch"]
            instructions += result.instructions
            levels.append(level)
            done_in_segment += result.instructions
            if done_in_segment >= phase.instructions:
                segment += 1
                done_in_segment = 0.0
                sm = None

            record = EpochRecord(
                index=epoch_index, start_time_s=time_s - duration,
                duration_s=duration, levels=[level], counters=counters,
                cluster_counters=[counters], instructions=result.instructions,
                cluster_energy_j=counters["energy_epoch"],
                uncore_energy_j=0.0, all_finished=False,
                finish_time_s=duration)
            decision = policy.decide(record)
            if isinstance(decision, (int, float)):
                level = table.clamp(int(decision))
            else:
                level = table.clamp(int(list(decision)[0]))
            epoch_index += 1

        return DetailedRunResult(
            policy_name=policy.name, kernel_name=self.kernel.name,
            time_s=time_s, energy_j=energy_j, instructions=instructions,
            levels=levels)
