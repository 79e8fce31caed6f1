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
(:data:`NUM_ACTIVITY_SLOTS` slots): each quantum contributes
``row * instructions`` where the per-instruction *quantum row* depends
only on ``(phase, solution)``; the solution is memoised in the
:class:`~repro.gpu.interval_model.SolutionCache`.
:func:`build_counters_matrix` then turns a stack of activity vectors
into the 47-counter schema for all clusters at once.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .arch import GPUArchConfig
from .counters import COUNTER_NAMES, NUM_COUNTERS
from .interval_model import (PP_ACTIVE_WARPS, PP_CLASS_SLICE, PP_L1_MISS,
                             PP_L2_MISS, PP_LOAD_FRAC, PP_STORE_FRAC,
                             SOL_BW_UTIL, SOL_CPI, SOL_IPC, SOL_MEM_LATENCY,
                             SOL_STALL_IDLE, SOL_STALL_MEM_LOAD,
                             SolutionCache)
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
#: (stepping) and bandwidth utilisation (busy-time weighting).
QR_IPC = NUM_ACTIVITY_SLOTS        # 29
QR_BW_UTIL = NUM_ACTIVITY_SLOTS + 1  # 30
QROW_WIDTH = NUM_ACTIVITY_SLOTS + 2


def quantum_rows_batch(arch: GPUArchConfig, params: np.ndarray,
                       solutions: np.ndarray) -> np.ndarray:
    """Per-instruction quantum rows of a solved batch.

    ``params`` is the ``(n, NUM_PHASE_PARAMS)`` phase-parameter matrix
    the batch was solved from and ``solutions`` its ``(n,
    NUM_SOLUTION_COLUMNS)`` solver outputs (:meth:`BatchSolution.
    columns`, or rows served by the :class:`SolutionCache`).
    Multiplying row ``j``'s first :data:`NUM_ACTIVITY_SLOTS` entries by
    a quantum's instruction count yields the quantum's contribution to
    every instruction-proportional activity slot (the time-proportional
    slots, busy time and bandwidth-utilisation time, are zero here and
    handled by the epoch loop); the trailing two entries carry IPC and
    bandwidth utilisation.  Elementwise ops only, so a row never
    depends on the other rows of the batch.
    """
    rows = np.empty((params.shape[0], QROW_WIDTH), dtype=np.float64)
    cpi = solutions[:, SOL_CPI]
    rows[:, A_BUSY_S] = 0.0
    rows[:, A_CYCLES] = cpi
    rows[:, A_INSTRUCTIONS] = 1.0
    rows[:, _CLASS_SLICE] = params[:, PP_CLASS_SLICE]
    rows[:, A_ISSUE_SLOTS] = cpi * arch.issue_width
    rows[:, A_STALL_MEM_LOAD:A_STALL_IDLE + 1] = (
        solutions[:, SOL_STALL_MEM_LOAD:SOL_STALL_IDLE + 1])
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
    rows[:, A_MEM_LATENCY] = solutions[:, SOL_MEM_LATENCY]
    rows[:, A_BW_UTIL_TIME] = 0.0
    rows[:, QR_IPC] = solutions[:, SOL_IPC]
    rows[:, QR_BW_UTIL] = solutions[:, SOL_BW_UTIL]
    return rows


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
        # Epoch-engine state (:mod:`repro.gpu.quantum`): the solve
        # windows the quantum walk reads, by solve key, and the (IPC,
        # clock) of the latest quantum, which sizes window refills.
        # Neither is run state: rows are pure functions of their solve
        # key, and the pace only sets how far ahead a refill solves, so
        # snapshots leave both out.
        self.solve_windows: dict = {}
        self.walk_pace: tuple[float, float] | None = None

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
    filled separately, by :func:`fill_power_columns`, once the power
    model has been evaluated for the epoch.  Ratio counters stay zero
    when their denominator is zero.
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


def fill_power_columns(counters: np.ndarray, activity: np.ndarray,
                       power_model, durations: np.ndarray,
                       voltages: np.ndarray) -> np.ndarray:
    """Evaluate the power model into the power columns of counter rows.

    ``counters`` holds the :func:`build_counters_matrix` rows (or a row
    slice of them) of the ``activity`` rows; ``durations`` and
    ``voltages`` are per row.  One
    :meth:`~repro.power.model.PowerModel.cluster_power_batch` call fills
    ``power_per_core`` (dynamic plus static), ``power_dynamic``,
    ``power_static`` and ``energy_epoch`` in place.  Returns the per-row
    energy in joules.
    """
    dynamic_w, static_w, energy_j = power_model.cluster_power_batch(
        activity, durations, voltages)
    counters[:, _CIDX["power_per_core"]] = dynamic_w + static_w
    counters[:, _CIDX["power_dynamic"]] = dynamic_w
    counters[:, _CIDX["power_static"]] = static_w
    counters[:, _CIDX["energy_epoch"]] = energy_j
    return energy_j

