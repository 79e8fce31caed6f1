"""Per-cluster execution state and the activity-vector layout.

A :class:`ClusterState` advances one SM cluster through its kernel in
variable-length *quanta*: within a quantum the workload position stays
inside one phase segment and one noise chunk, so the interval model's
stationarity assumption holds exactly.  The quantum loop itself lives
in :func:`repro.gpu.quantum.run_epoch_batch`, which advances any number
of clusters through one DVFS epoch at a time.

Hot-path layout
---------------
An epoch accumulates into a numpy *activity vector*
(:data:`NUM_ACTIVITY_SLOTS` slots) instead of ~25 scalar dataclass
fields: each quantum contributes ``row * instructions`` where the
per-instruction *quantum row* depends only on ``(phase, solution)`` and
is memoised in the :class:`~repro.gpu.interval_model.SolutionCache`.
:func:`build_counters_matrix` then turns a stack of activity vectors
into the 47-counter schema for all clusters at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from .arch import GPUArchConfig
from .counters import COUNTER_NAMES, NUM_COUNTERS, CounterSet
from .interval_model import (PP_ACTIVE_WARPS, PP_CLASS_SLICE, PP_L1_MISS,
                             PP_L2_MISS, PP_LOAD_FRAC, PP_STORE_FRAC,
                             BatchSolution, SolutionCache)
from .kernels import KernelCursor, KernelProfile
from .noise import WorkloadNoise
from .phases import INSTRUCTION_CLASSES

# ---------------------------------------------------------------------------
# Activity-vector layout
# ---------------------------------------------------------------------------
#: Slot indices of the accumulated activity vector.  Slots 1..27 scale
#: with the quantum's instruction count; slots 0 and 28 scale with the
#: quantum's wall-clock time and are accumulated separately.
A_BUSY_S = 0
A_CYCLES = 1
A_INSTRUCTIONS = 2
A_CLASS0 = 3                       # 9 instruction classes: slots 3..11
_N_CLASSES = len(INSTRUCTION_CLASSES)
A_ISSUE_SLOTS = A_CLASS0 + _N_CLASSES          # 12
A_STALL_MEM_LOAD = 13
A_STALL_MEM_OTHER = 14
A_STALL_CONTROL = 15
A_STALL_SYNC = 16
A_STALL_DATA = 17
A_STALL_IDLE = 18
A_L1_READ_ACCESS = 19
A_L1_READ_MISS = 20
A_L1_WRITE_ACCESS = 21
A_L1_WRITE_MISS = 22
A_L2_ACCESS = 23
A_L2_MISS = 24
A_DRAM_BYTES = 25
A_WARP_INST = 26
A_MEM_LATENCY = 27
A_BW_UTIL_TIME = 28
NUM_ACTIVITY_SLOTS = 29

_CLASS_SLICE = slice(A_CLASS0, A_CLASS0 + _N_CLASSES)

#: *Quantum rows* extend the per-instruction activity slots with the two
#: solver outputs the epoch loop itself consumes — sustained IPC
#: (stepping) and bandwidth utilisation (busy-time weighting) — so one
#: cached row per solve is all the engine reads.
QR_IPC = NUM_ACTIVITY_SLOTS        # 29
QR_BW_UTIL = NUM_ACTIVITY_SLOTS + 1  # 30
QROW_WIDTH = NUM_ACTIVITY_SLOTS + 2


def quantum_rows_batch(arch: GPUArchConfig, params: np.ndarray,
                       solutions: BatchSolution,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Per-instruction quantum rows of a solved batch.

    ``params`` is the ``(n, NUM_PHASE_PARAMS)`` phase-parameter matrix
    the batch was solved from.  Multiplying row ``j``'s first
    :data:`NUM_ACTIVITY_SLOTS` entries by a quantum's instruction count
    yields the quantum's contribution to every instruction-proportional
    activity slot (the time-proportional slots, busy time and
    bandwidth-utilisation time, are zero here and handled by the epoch
    loop); the trailing two entries carry IPC and bandwidth
    utilisation.  Elementwise ops only, so a row never depends on the
    other rows of the batch.
    """
    n = params.shape[0]
    rows = out if out is not None else np.empty((n, QROW_WIDTH),
                                                dtype=np.float64)
    cpi = solutions.cycles_per_instruction
    rows[:, A_BUSY_S] = 0.0
    rows[:, A_CYCLES] = cpi
    rows[:, A_INSTRUCTIONS] = 1.0
    rows[:, _CLASS_SLICE] = params[:, PP_CLASS_SLICE]
    rows[:, A_ISSUE_SLOTS] = cpi * arch.issue_width
    rows[:, A_STALL_MEM_LOAD] = solutions.stall_mem_load
    rows[:, A_STALL_MEM_OTHER] = solutions.stall_mem_other
    rows[:, A_STALL_CONTROL] = solutions.stall_control
    rows[:, A_STALL_SYNC] = solutions.stall_sync
    rows[:, A_STALL_DATA] = solutions.stall_data
    rows[:, A_STALL_IDLE] = solutions.stall_idle
    loads = params[:, PP_LOAD_FRAC]
    stores = params[:, PP_STORE_FRAC]
    l1_read_miss = loads * params[:, PP_L1_MISS]
    l1_write_miss = stores * 0.9  # write-through-ish global stores
    l2_access = l1_read_miss + l1_write_miss
    l2_miss = l2_access * params[:, PP_L2_MISS]
    rows[:, A_L1_READ_ACCESS] = loads
    rows[:, A_L1_READ_MISS] = l1_read_miss
    rows[:, A_L1_WRITE_ACCESS] = stores
    rows[:, A_L1_WRITE_MISS] = l1_write_miss
    rows[:, A_L2_ACCESS] = l2_access
    rows[:, A_L2_MISS] = l2_miss
    rows[:, A_DRAM_BYTES] = l2_miss * arch.cache_line_bytes
    rows[:, A_WARP_INST] = params[:, PP_ACTIVE_WARPS]
    rows[:, A_MEM_LATENCY] = solutions.mem_latency_cycles
    rows[:, A_BW_UTIL_TIME] = 0.0
    rows[:, QR_IPC] = solutions.ipc
    rows[:, QR_BW_UTIL] = solutions.bandwidth_utilization
    return rows


@dataclass
class EpochActivity:
    """Aggregated microarchitectural activity of one cluster epoch."""

    duration_s: float = 0.0
    busy_s: float = 0.0
    frequency_hz: float = 0.0
    voltage_v: float = 0.0
    cycles: float = 0.0
    instructions: float = 0.0
    inst_by_class: dict[str, float] = field(
        default_factory=lambda: {cls: 0.0 for cls in INSTRUCTION_CLASSES})
    issue_slots: float = 0.0
    stall_mem_load: float = 0.0
    stall_mem_other: float = 0.0
    stall_control: float = 0.0
    stall_sync: float = 0.0
    stall_data: float = 0.0
    stall_idle: float = 0.0
    l1_read_access: float = 0.0
    l1_read_miss: float = 0.0
    l1_write_access: float = 0.0
    l1_write_miss: float = 0.0
    l2_access: float = 0.0
    l2_miss: float = 0.0
    dram_bytes: float = 0.0
    warp_inst_weighted: float = 0.0
    mem_latency_weighted: float = 0.0
    bandwidth_util_time: float = 0.0
    finished: bool = False
    #: Cached activity vector (filled by the epoch loop; ``None`` for
    #: activities built field-by-field, e.g. by the detailed model).
    vector: np.ndarray | None = field(default=None, compare=False,
                                      repr=False)

    @classmethod
    def from_vector(cls, vector: np.ndarray, *, duration_s: float,
                    frequency_hz: float, voltage_v: float,
                    finished: bool) -> "EpochActivity":
        """Build an activity record around an accumulated vector."""
        v = vector
        return cls(
            duration_s=duration_s,
            busy_s=float(v[A_BUSY_S]),
            frequency_hz=frequency_hz,
            voltage_v=voltage_v,
            cycles=float(v[A_CYCLES]),
            instructions=float(v[A_INSTRUCTIONS]),
            inst_by_class=dict(zip(INSTRUCTION_CLASSES,
                                   v[_CLASS_SLICE].tolist())),
            issue_slots=float(v[A_ISSUE_SLOTS]),
            stall_mem_load=float(v[A_STALL_MEM_LOAD]),
            stall_mem_other=float(v[A_STALL_MEM_OTHER]),
            stall_control=float(v[A_STALL_CONTROL]),
            stall_sync=float(v[A_STALL_SYNC]),
            stall_data=float(v[A_STALL_DATA]),
            stall_idle=float(v[A_STALL_IDLE]),
            l1_read_access=float(v[A_L1_READ_ACCESS]),
            l1_read_miss=float(v[A_L1_READ_MISS]),
            l1_write_access=float(v[A_L1_WRITE_ACCESS]),
            l1_write_miss=float(v[A_L1_WRITE_MISS]),
            l2_access=float(v[A_L2_ACCESS]),
            l2_miss=float(v[A_L2_MISS]),
            dram_bytes=float(v[A_DRAM_BYTES]),
            warp_inst_weighted=float(v[A_WARP_INST]),
            mem_latency_weighted=float(v[A_MEM_LATENCY]),
            bandwidth_util_time=float(v[A_BW_UTIL_TIME]),
            finished=finished,
            vector=vector,
        )

    def as_vector(self) -> np.ndarray:
        """The activity vector (cached, or rebuilt from the fields)."""
        if self.vector is not None:
            return self.vector
        v = np.zeros(NUM_ACTIVITY_SLOTS, dtype=np.float64)
        v[A_BUSY_S] = self.busy_s
        v[A_CYCLES] = self.cycles
        v[A_INSTRUCTIONS] = self.instructions
        for offset, cls in enumerate(INSTRUCTION_CLASSES):
            v[A_CLASS0 + offset] = self.inst_by_class.get(cls, 0.0)
        v[A_ISSUE_SLOTS] = self.issue_slots
        v[A_STALL_MEM_LOAD] = self.stall_mem_load
        v[A_STALL_MEM_OTHER] = self.stall_mem_other
        v[A_STALL_CONTROL] = self.stall_control
        v[A_STALL_SYNC] = self.stall_sync
        v[A_STALL_DATA] = self.stall_data
        v[A_STALL_IDLE] = self.stall_idle
        v[A_L1_READ_ACCESS] = self.l1_read_access
        v[A_L1_READ_MISS] = self.l1_read_miss
        v[A_L1_WRITE_ACCESS] = self.l1_write_access
        v[A_L1_WRITE_MISS] = self.l1_write_miss
        v[A_L2_ACCESS] = self.l2_access
        v[A_L2_MISS] = self.l2_miss
        v[A_DRAM_BYTES] = self.dram_bytes
        v[A_WARP_INST] = self.warp_inst_weighted
        v[A_MEM_LATENCY] = self.mem_latency_weighted
        v[A_BW_UTIL_TIME] = self.bandwidth_util_time
        return v

    @property
    def stall_mem(self) -> float:
        """Total memory-hazard stall slots."""
        return self.stall_mem_load + self.stall_mem_other

    @property
    def stall_total(self) -> float:
        """All stall slots in the epoch."""
        return (self.stall_mem_load + self.stall_mem_other + self.stall_control
                + self.stall_sync + self.stall_data + self.stall_idle)

    @property
    def ipc(self) -> float:
        """Instructions per core cycle over the epoch."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def avg_active_warps(self) -> float:
        """Instruction-weighted mean of schedulable warps."""
        if self.instructions <= 0:
            return 0.0
        return self.warp_inst_weighted / self.instructions

    @property
    def avg_mem_latency(self) -> float:
        """Instruction-weighted mean memory latency (core cycles)."""
        if self.instructions <= 0:
            return 0.0
        return self.mem_latency_weighted / self.instructions

    @property
    def avg_bandwidth_utilization(self) -> float:
        """Busy-time-weighted DRAM bandwidth utilisation."""
        if self.busy_s <= 0:
            return 0.0
        return self.bandwidth_util_time / self.busy_s


class ClusterState:
    """One independently clocked SM cluster executing a kernel.

    Clusters of one simulator share its :class:`SolutionCache`; a
    cluster built without one gets its own.
    """

    def __init__(self, arch: GPUArchConfig, kernel: KernelProfile,
                 noise: WorkloadNoise, cluster_id: int = 0,
                 skew_instructions: float = 0.0,
                 solution_cache: SolutionCache | None = None) -> None:
        self.arch = arch
        self.cluster_id = int(cluster_id)
        self.cursor = KernelCursor(kernel, skew_instructions=skew_instructions)
        self.noise = noise
        self.level = arch.vf_table.default_level
        self.solution_cache = (solution_cache if solution_cache is not None
                               else SolutionCache())
        self._pending_transition_s = 0.0

    # ------------------------------------------------------------------
    # DVFS control
    # ------------------------------------------------------------------
    def set_level(self, level: int) -> None:
        """Switch the cluster to operating point ``level``.

        Switching to a *different* level charges the IVR transition dead
        time at the start of the next quantum.
        """
        clamped = self.arch.vf_table.clamp(level)
        if clamped != level:
            raise SimulationError(
                f"V/f level {level} out of range for {self.arch.name}"
            )
        if clamped != self.level:
            self._pending_transition_s += self.arch.dvfs_transition_ns * 1e-9
        self.level = clamped

    @property
    def finished(self) -> bool:
        """True once the cluster's kernel has fully executed."""
        return self.cursor.finished

    @property
    def instructions_done(self) -> float:
        """Instructions completed by this cluster since kernel start."""
        return self.cursor.global_instructions_done

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_epoch(self, epoch_s: float) -> EpochActivity:
        """Advance the cluster by ``epoch_s`` seconds of wall-clock time.

        A one-cluster :func:`~repro.gpu.quantum.run_epoch_batch`, wrapped
        as an activity record.  A finished cluster idles: time and
        cycles elapse, nothing executes.
        """
        from .quantum import run_epoch_batch
        point = self.arch.vf_table[self.level]
        result = run_epoch_batch([self], epoch_s)
        return EpochActivity.from_vector(
            result.matrix[0],
            duration_s=epoch_s,
            frequency_hz=point.frequency_hz,
            voltage_v=point.voltage_v,
            finished=bool(result.finished[0]),
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the replayable state of this cluster."""
        return {
            "cursor": self.cursor.clone(),
            "level": self.level,
            "pending_transition_s": self._pending_transition_s,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken with :meth:`snapshot`."""
        self.cursor = state["cursor"].clone()
        self.level = state["level"]
        self._pending_transition_s = state["pending_transition_s"]


# ---------------------------------------------------------------------------
# Counter building (vectorised over clusters)
# ---------------------------------------------------------------------------
_CIDX = {name: index for index, name in enumerate(COUNTER_NAMES)}
_INST_CLASS_COUNTERS = ("inst_fp32", "inst_fp64", "inst_int", "inst_sfu",
                        "inst_load", "inst_store", "inst_shared",
                        "inst_branch", "inst_sync")
#: Counter columns that mirror instruction-class activity slots, in
#: :data:`INSTRUCTION_CLASSES` order.
_INST_CLASS_COLUMNS = np.array([_CIDX[name]
                                for name in _INST_CLASS_COUNTERS])


def build_counters_matrix(activity: np.ndarray,
                          arch: GPUArchConfig) -> np.ndarray:
    """Turn stacked activity vectors into 47-counter rows.

    ``activity`` has shape ``(clusters, NUM_ACTIVITY_SLOTS)``; the
    result has shape ``(clusters, NUM_COUNTERS)`` in
    :data:`~repro.gpu.counters.COUNTER_NAMES` order.  Power counters are
    filled separately by the simulator once the power model has been
    evaluated for the epoch.  Guards mirror the scalar accounting:
    ratio counters stay zero when their denominator is zero.
    """
    a = np.asarray(activity, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != NUM_ACTIVITY_SLOTS:
        raise SimulationError(
            f"expected activity of shape (n, {NUM_ACTIVITY_SLOTS}), "
            f"got {a.shape}"
        )
    n = a.shape[0]
    out = np.zeros((n, NUM_COUNTERS), dtype=np.float64)

    inst = a[:, A_INSTRUCTIONS]
    cycles = a[:, A_CYCLES]
    has_inst = inst > 0
    safe_inst = np.where(has_inst, inst, 1.0)

    out[:, _CIDX["inst_total"]] = inst
    out[:, _CIDX["ipc"]] = np.where(cycles > 0,
                                    inst / np.where(cycles > 0, cycles, 1.0),
                                    0.0)
    out[:, _INST_CLASS_COLUMNS] = a[:, _CLASS_SLICE]
    out[:, _CIDX["frac_fp32"]] = np.where(
        has_inst, a[:, A_CLASS0 + 0] / safe_inst, 0.0)
    out[:, _CIDX["frac_fp64"]] = np.where(
        has_inst, a[:, A_CLASS0 + 1] / safe_inst, 0.0)
    mem_inst = (a[:, A_CLASS0 + INSTRUCTION_CLASSES.index("load")]
                + a[:, A_CLASS0 + INSTRUCTION_CLASSES.index("store")])
    out[:, _CIDX["frac_mem"]] = np.where(has_inst, mem_inst / safe_inst, 0.0)
    out[:, _CIDX["frac_branch"]] = np.where(
        has_inst,
        a[:, A_CLASS0 + INSTRUCTION_CLASSES.index("branch")] / safe_inst,
        0.0)
    avg_warps = np.where(has_inst, a[:, A_WARP_INST] / safe_inst, 0.0)
    out[:, _CIDX["inst_per_warp"]] = np.where(
        has_inst, inst / np.maximum(1.0, avg_warps), 0.0)
    issue_slots = a[:, A_ISSUE_SLOTS]
    out[:, _CIDX["issue_slots"]] = issue_slots

    stall_total = (a[:, A_STALL_MEM_LOAD] + a[:, A_STALL_MEM_OTHER]
                   + a[:, A_STALL_CONTROL] + a[:, A_STALL_SYNC]
                   + a[:, A_STALL_DATA] + a[:, A_STALL_IDLE])
    stall_mem = a[:, A_STALL_MEM_LOAD] + a[:, A_STALL_MEM_OTHER]
    out[:, _CIDX["stall_total"]] = stall_total
    out[:, _CIDX["stall_mem_hazard"]] = stall_mem
    out[:, _CIDX["stall_mem_hazard_load"]] = a[:, A_STALL_MEM_LOAD]
    out[:, _CIDX["stall_mem_hazard_nonload"]] = a[:, A_STALL_MEM_OTHER]
    out[:, _CIDX["stall_control"]] = a[:, A_STALL_CONTROL]
    out[:, _CIDX["stall_sync"]] = a[:, A_STALL_SYNC]
    out[:, _CIDX["stall_data"]] = a[:, A_STALL_DATA]
    out[:, _CIDX["stall_idle"]] = a[:, A_STALL_IDLE]
    has_stall = stall_total > 0
    safe_stall = np.where(has_stall, stall_total, 1.0)
    out[:, _CIDX["frac_stall_mem"]] = np.where(
        has_stall, stall_mem / safe_stall, 0.0)
    out[:, _CIDX["frac_stall_control"]] = np.where(
        has_stall, a[:, A_STALL_CONTROL] / safe_stall, 0.0)
    out[:, _CIDX["avg_mem_latency"]] = np.where(
        has_inst, a[:, A_MEM_LATENCY] / safe_inst, 0.0)
    has_slots = issue_slots > 0
    safe_slots = np.where(has_slots, issue_slots, 1.0)
    stalled_share = np.where(has_slots, stall_total / safe_slots, 0.0)
    out[:, _CIDX["eligible_warps"]] = avg_warps * (1.0 - stalled_share)
    out[:, _CIDX["warp_issue_efficiency"]] = np.where(
        has_slots, inst / safe_slots, 0.0)

    l1_read_access = a[:, A_L1_READ_ACCESS]
    l1_read_miss = a[:, A_L1_READ_MISS]
    out[:, _CIDX["l1_read_access"]] = l1_read_access
    out[:, _CIDX["l1_read_miss"]] = l1_read_miss
    out[:, _CIDX["l1_read_hit"]] = l1_read_access - l1_read_miss
    has_l1 = l1_read_access > 0
    out[:, _CIDX["l1_read_miss_rate"]] = np.where(
        has_l1, l1_read_miss / np.where(has_l1, l1_read_access, 1.0), 0.0)
    out[:, _CIDX["l1_write_access"]] = a[:, A_L1_WRITE_ACCESS]
    out[:, _CIDX["l1_write_miss"]] = a[:, A_L1_WRITE_MISS]
    l2_access = a[:, A_L2_ACCESS]
    out[:, _CIDX["l2_access"]] = l2_access
    out[:, _CIDX["l2_miss"]] = a[:, A_L2_MISS]
    has_l2 = l2_access > 0
    out[:, _CIDX["l2_miss_rate"]] = np.where(
        has_l2, a[:, A_L2_MISS] / np.where(has_l2, l2_access, 1.0), 0.0)
    out[:, _CIDX["dram_bytes"]] = a[:, A_DRAM_BYTES]

    out[:, _CIDX["active_warps"]] = avg_warps
    out[:, _CIDX["occupancy"]] = avg_warps / arch.max_warps_per_cluster
    busy = a[:, A_BUSY_S]
    has_busy = busy > 0
    out[:, _CIDX["bandwidth_utilization"]] = np.where(
        has_busy, a[:, A_BW_UTIL_TIME] / np.where(has_busy, busy, 1.0), 0.0)
    return out


def build_counters(activity: EpochActivity, arch: GPUArchConfig) -> CounterSet:
    """Turn one activity record into the 47-counter schema.

    Scalar wrapper around :func:`build_counters_matrix`; power counters
    are filled separately by the simulator once the power model has been
    evaluated for the epoch.
    """
    row = build_counters_matrix(activity.as_vector()[None, :], arch)[0]
    return CounterSet.from_vector(row)
