"""Fused multi-campaign simulation engine.

Campaign workloads (datagen grids, Fig. 4 policy comparisons, fleet
phase-1 job simulation) are thousands of *independent* policy runs over
near-identical simulators.  The serial path executes each run's epoch
loop alone: every quantum pays one small counter-matrix build, one
small power evaluation and one small model forward pass per task, and
every task ships its own pickled copy of the model weights to its
worker process.

:class:`FusedCampaignEngine` co-simulates N such tasks in lockstep
instead.  Each quantum:

1. every live task's clusters advance one epoch through one shared
   epoch-engine call (each cluster steps exactly as it would alone, so
   RNG/noise/cursor state evolves bit-for-bit the same),
2. all tasks' activity vectors are stacked into one
   ``(total_clusters, slots)`` matrix feeding **one** counter-matrix
   build, with per-task power evaluated on each task's row slice,
3. eligible SSMDVFS controllers contribute their active-cluster rows to
   **one** cross-task Decision-maker/Calibrator forward pass (per-row
   working presets), via the controller's ``fused_prepare`` /
   ``fused_commit`` hooks.

Tasks that finish early are masked out of subsequent quanta (their
final record receives the same truncation/energy-refund adjustment the
serial run loop applies); heterogeneous epoch boundaries are handled by
each task's own time/epoch cursor — the engine never assumes tasks are
in the same epoch, only that they share the epoch *length*.

Bit-identity with the serial path is a hard invariant, maintained by
three rules established empirically against the BLAS kernels numpy
dispatches to:

* elementwise/rowwise stages (counter builds, scalers, activations,
  per-row argmax) are stacking-invariant — always safe to batch;
* row-slice *reductions* of a stacked matrix (per-task column sums,
  ``mean(axis=0)`` over a task's rows) match the standalone reduction —
  safe for per-task counter averaging and uncore accounting;
* matrix products are *not* generally stacking-invariant: single rows
  take a different BLAS code path (~1 ULP different rounding), and
  matrix-vector accumulation order varies with the row count.  Hence
  power (a per-class matvec) is evaluated per task slice, and a task
  joins a cross-task inference batch (pure GEMMs, which are row-stable
  for slices of >= 2 rows) only when it contributes >= 2 active rows —
  otherwise it runs its own forward pass, exactly like the serial
  controller.

The module also provides the shared-memory transport used to hand
read-only model weights to worker processes once per campaign instead
of pickling them per task:
:func:`dump_shared` externalises an object graph's numpy arrays into a
single ``multiprocessing.shared_memory`` block, and
:func:`load_shared` / :class:`SharedContextCache` reattach them as
read-only views on the worker side.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..power.energy import EnergyAccount
from .cluster import A_BUSY_S, build_counters_matrix
from .counters import COUNTER_INDEX, CounterSet
from .quantum import run_epoch_batch
from .simulator import EpochRecord, GPUSimulator, RunResult

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None

#: Arrays below this many bytes stay inline in the pickle payload —
#: externalising them would cost more metadata than it saves.
SHARED_ARRAY_THRESHOLD_BYTES = 128

#: Segment names created by *this* process (the owner keeps its
#: resource-tracker registration; only attaching processes unregister).
_OWNED_SEGMENTS: set[str] = set()


# ----------------------------------------------------------------------
# Shared-memory object transport
# ----------------------------------------------------------------------
_SHM_TAG = "repro-shm-array"


@dataclass(frozen=True)
class SharedObjectRef:
    """Picklable handle to an object graph dumped by :func:`dump_shared`.

    ``shm_name`` is ``None`` in inline mode (no shared-memory segment —
    either the graph had no large arrays or the platform refused the
    allocation); the payload then contains everything.
    """

    shm_name: str | None
    arrays: tuple[tuple[int, tuple, str], ...]  # (offset, shape, dtype)
    payload: bytes

    @property
    def shared_bytes(self) -> int:
        """Bytes externalised into the shared-memory block."""
        return sum(int(np.prod(shape)) * np.dtype(dtype).itemsize
                   for _, shape, dtype in self.arrays)


class _ArrayPickler(pickle.Pickler):
    """Pickler externalising large ndarrays via persistent IDs."""

    def __init__(self, file, collected: list[np.ndarray],
                 threshold: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._collected = collected
        self._threshold = threshold

    def persistent_id(self, obj):
        if (isinstance(obj, np.ndarray) and obj.dtype != object
                and obj.size > 0 and obj.nbytes >= self._threshold):
            self._collected.append(np.ascontiguousarray(obj))
            return (_SHM_TAG, len(self._collected) - 1)
        return None


class _ArrayUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent IDs to shared-memory views."""

    def __init__(self, file, views: list[np.ndarray]) -> None:
        super().__init__(file)
        self._views = views

    def persistent_load(self, pid):
        tag, index = pid
        if tag != _SHM_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        return self._views[index]


def dump_shared(obj, *, threshold_bytes: int = SHARED_ARRAY_THRESHOLD_BYTES):
    """Dump ``obj`` with its numpy arrays in one shared-memory block.

    Returns ``(ref, block)``: a picklable :class:`SharedObjectRef` to
    ship to workers, and the owning ``SharedMemory`` block (``None`` in
    inline mode) which the caller must keep alive for the campaign and
    release afterwards via :func:`release_shared`.  Falls back to a
    plain inline pickle when shared memory is unavailable or the
    allocation fails — same results, per-task copies again.
    """
    collected: list[np.ndarray] = []
    buffer = io.BytesIO()
    _ArrayPickler(buffer, collected, threshold_bytes).dump(obj)
    payload = buffer.getvalue()
    if not collected or shared_memory is None:
        if collected:  # shared memory unavailable: re-pickle inline
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return SharedObjectRef(None, (), payload), None
    total = sum(array.nbytes for array in collected)
    try:
        block = shared_memory.SharedMemory(create=True, size=max(1, total))
    except (OSError, ValueError):
        return (SharedObjectRef(
            None, (), pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
            None)
    _OWNED_SEGMENTS.add(block.name)
    metas: list[tuple[int, tuple, str]] = []
    offset = 0
    for array in collected:
        view = np.ndarray(array.shape, array.dtype, buffer=block.buf,
                          offset=offset)
        view[...] = array
        metas.append((offset, array.shape, array.dtype.str))
        offset += array.nbytes
    return SharedObjectRef(block.name, tuple(metas), payload), block


def load_shared(ref: SharedObjectRef):
    """Rebuild an object dumped by :func:`dump_shared`.

    Returns ``(obj, block)``.  In shared-memory mode the object's large
    arrays are *read-only views* into the attached block; the caller
    must keep ``block`` (or the views) referenced while the object is
    in use.  In inline mode ``block`` is ``None``.
    """
    if ref.shm_name is None:
        return pickle.loads(ref.payload), None
    block = shared_memory.SharedMemory(name=ref.shm_name)
    # Python < 3.13 registers every *attach* with the resource tracker,
    # which then unlinks the segment when this process exits — stealing
    # it from the owner.  Only the creating process may keep its
    # registration (and unlink); an in-process load (serial campaigns)
    # must not unregister the owner's claim.
    if resource_tracker is not None and ref.shm_name not in _OWNED_SEGMENTS:
        try:
            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
    views = []
    for offset, shape, dtype in ref.arrays:
        view = np.ndarray(shape, np.dtype(dtype), buffer=block.buf,
                          offset=offset)
        view.flags.writeable = False
        views.append(view)
    obj = _ArrayUnpickler(io.BytesIO(ref.payload), views).load()
    return obj, block


def release_shared(block) -> None:
    """Close and unlink a block returned by :func:`dump_shared`."""
    if block is None:
        return
    _OWNED_SEGMENTS.discard(block.name)
    try:
        block.close()
        block.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover
        pass


class SharedContextCache:
    """Per-process cache of loaded shared contexts (for pool workers).

    A campaign ships the same :class:`SharedObjectRef` inside every
    group task; each pool worker should attach and unpickle it once,
    not once per group.  Keyed by the segment name (unique per dump) or
    the payload digest in inline mode.  Eviction only drops our
    reference — numpy views keep the underlying mapping alive, so
    previously returned contexts stay valid.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = int(max_entries)
        self._entries: dict[object, tuple] = {}

    def get(self, ref: SharedObjectRef):
        key = ref.shm_name if ref.shm_name is not None else hash(ref.payload)
        entry = self._entries.get(key)
        if entry is None:
            entry = load_shared(ref)
            if len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        return entry[0]


def fuse_groups(items: Sequence, width: int) -> list[list]:
    """Split an ordered task list into consecutive fused groups."""
    if width < 1:
        raise SimulationError("fuse width must be >= 1")
    return [list(items[i:i + width]) for i in range(0, len(items), width)]


# ----------------------------------------------------------------------
# The fused engine
# ----------------------------------------------------------------------
@dataclass
class _FusedTask:
    """One co-simulated campaign task and its accumulated run state."""

    task_id: object
    simulator: GPUSimulator
    policy: object
    max_epochs: int
    keep_records: bool
    account: EnergyAccount = field(default_factory=EnergyAccount)
    records: list[EpochRecord] = field(default_factory=list)
    epochs: int = 0
    done: bool = False
    result: RunResult | None = None


class FusedCampaignEngine:
    """Co-simulates N independent campaign tasks in lockstep.

    Tasks must share the architecture, epoch length and power-model
    configuration (validated at :meth:`add_task`); kernels, seeds and
    policies are free to differ per task.  :meth:`run` returns one
    :class:`RunResult` per task, bit-identical to running each task's
    ``simulator.run(policy)`` alone.

    The engine itself is picklable mid-campaign (simulators and
    policies are), so a paused engine can be serialised and resumed —
    the mid-campaign checkpoint primitive the group runners build on.
    """

    def __init__(self, stats_counters: dict[str, int] | None = None) -> None:
        self.tasks: list[_FusedTask] = []
        # ``is not None`` (not truthiness): callers hand in an *empty*
        # dict precisely so the engine fills it in place.
        self.counters: dict[str, int] = (stats_counters
                                         if stats_counters is not None
                                         else {})
        self._started = False

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    def add_task(self, task_id, simulator: GPUSimulator, policy, *,
                 max_epochs: int = 100_000,
                 keep_records: bool = True) -> None:
        """Register one (simulator, policy) campaign task."""
        if self._started:
            raise SimulationError("cannot add tasks to a started engine")
        if self.tasks:
            first = self.tasks[0].simulator
            if simulator.epoch_s != first.epoch_s:
                raise SimulationError(
                    "fused tasks must share the epoch length "
                    f"({simulator.epoch_s!r} != {first.epoch_s!r})")
            if not (simulator.arch is first.arch
                    or simulator.arch == first.arch):
                raise SimulationError(
                    "fused tasks must share the architecture config")
            if simulator.power_model.config != first.power_model.config:
                raise SimulationError(
                    "fused tasks must share the power-model config")
        self.tasks.append(_FusedTask(task_id, simulator, policy,
                                     max_epochs, keep_records))
        self._count("fused_tasks")

    # ------------------------------------------------------------------
    def run(self) -> list[RunResult]:
        """Run every task to completion; results in task order."""
        if not self.tasks:
            return []
        if not self._started:
            self._started = True
            for task in self.tasks:
                task.policy.reset(task.simulator)
                if task.simulator.finished:
                    self._finalize(task)
        while any(not task.done for task in self.tasks):
            self.step_quantum()
        return [task.result for task in self.tasks]

    def _finalize(self, task: _FusedTask) -> None:
        task.done = True
        task.result = RunResult(
            policy_name=task.policy.name,
            kernel_name=task.simulator.workload_name,
            account=task.account,
            epochs=task.epochs,
            records=task.records,
        )

    # ------------------------------------------------------------------
    def step_quantum(self) -> None:
        """Advance every live task by one epoch with batched evaluation."""
        live = [task for task in self.tasks if not task.done]
        if not live:
            return
        self._count("fused_quanta")
        self._count("fused_task_epochs", len(live))

        arch = live[0].simulator.arch
        epoch_s = live[0].simulator.epoch_s

        # Phase 1: ALL live tasks' clusters advance one epoch through
        # **one** ``run_epoch_batch`` call — each cluster steps exactly
        # as it would alone while the interval-model solves are batched
        # across the whole fleet of co-simulated tasks.
        spans: list[tuple[_FusedTask, int, int, list[int]]] = []
        all_clusters = []
        for task in live:
            sim = task.simulator
            if task.epochs >= task.max_epochs:
                raise SimulationError(
                    f"run exceeded {task.max_epochs} epochs; kernel "
                    f"{sim.workload_name!r} may be too long for this "
                    f"budget"
                )
            start = len(all_clusters)
            all_clusters.extend(sim.clusters)
            spans.append((task, start, len(all_clusters), sim.levels))
        batch_result = run_epoch_batch(all_clusters, epoch_s)
        activity_matrix = batch_result.matrix
        durations = np.full(len(all_clusters), epoch_s, dtype=np.float64)

        # Phase 2: one stacked counter build over every live task's
        # clusters (all elementwise/rowwise — stacking-invariant), then
        # per-task power on each task's row slice.  Power is *not*
        # batched across tasks: its per-instruction-class energy is a
        # matrix-vector product whose accumulation order (and thus
        # final ULP) depends on the row count BLAS sees, so a
        # cross-task batch would differ from the serial per-task call.
        # The slice view is value-identical to the task's own stack, so
        # the per-slice call reproduces the serial bits exactly.
        counters_matrix = build_counters_matrix(activity_matrix, arch)
        self._count("fused_stacked_rows", activity_matrix.shape[0])
        energy_by_span: list[np.ndarray] = []
        for task, start, stop, levels in spans:
            sim = task.simulator
            dynamic_w, static_w, energy_j = (
                sim.power_model.cluster_power_batch(
                    activity_matrix[start:stop], durations[start:stop],
                    sim._voltage_by_level[levels]))
            sub = counters_matrix[start:stop]
            sub[:, COUNTER_INDEX["power_per_core"]] = dynamic_w + static_w
            sub[:, COUNTER_INDEX["power_dynamic"]] = dynamic_w
            sub[:, COUNTER_INDEX["power_static"]] = static_w
            sub[:, COUNTER_INDEX["energy_epoch"]] = energy_j
            energy_by_span.append(energy_j)

        # Phase 3: per-task record assembly from row slices (slice
        # reductions of the stacked matrices are bit-identical to the
        # standalone per-task reductions), then finish masking exactly
        # as the serial run loop: truncate + account, or account +
        # decide.
        pending: list[tuple[_FusedTask, EpochRecord]] = []
        for span_index, (task, start, stop, levels) in enumerate(spans):
            sim = task.simulator
            sub = counters_matrix[start:stop]
            uncore = sim.power_model.uncore_power(
                activity_matrix[start:stop], epoch_s)
            record = EpochRecord(
                index=sim.epoch_index,
                start_time_s=sim.time_s,
                duration_s=epoch_s,
                levels=levels,
                counters=CounterSet.from_vector(sub.mean(axis=0)),
                cluster_counters=[CounterSet.from_vector(row)
                                  for row in sub],
                instructions=sum(
                    batch_result.instructions[start:stop].tolist()),
                cluster_energy_j=float(energy_by_span[span_index].sum()),
                uncore_energy_j=uncore.energy_j,
                all_finished=all(
                    batch_result.finished[start:stop].tolist()),
                finish_time_s=max(
                    activity_matrix[start:stop, A_BUSY_S].tolist(),
                    default=0.0),
            )
            sim.time_s += epoch_s
            sim.epoch_index += 1
            task.epochs += 1
            if record.all_finished:
                time_s, effective_energy = sim.truncate_final_record(record)
                task.account.add(effective_energy, time_s)
            else:
                task.account.add(record.energy_j, record.duration_s)
                pending.append((task, record))
            if task.keep_records:
                task.records.append(record)
            if record.all_finished:
                self._finalize(task)

        self._decide(pending)

    # ------------------------------------------------------------------
    def _decide(self, pending: list[tuple[_FusedTask, EpochRecord]]) -> None:
        """Policy decisions, batching SSMDVFS inference across tasks.

        Controllers exposing the ``fused_prepare``/``fused_commit``
        hooks and contributing >= 2 active rows are grouped by their
        (Decision-maker, Calibrator) object pair and evaluated in one
        forward pass with per-row working presets; everything else
        (static/heuristic baselines, guarded or faulty wrappers, scalar
        controllers, single-active-row epochs) decides solo — the exact
        serial code path.
        """
        batches: dict[tuple[int, int], list] = {}
        for task, record in pending:
            policy = task.policy
            prepare = getattr(policy, "fused_prepare", None)
            if not callable(prepare):
                task.simulator.apply_decision(policy.decide(record))
                self._count("fused_solo_decisions")
                continue
            rows = prepare(record)
            if rows is None:
                task.simulator.apply_decision(policy.fused_fallback(record))
                self._count("fused_solo_decisions")
                continue
            key = (id(policy.model.decision_maker),
                   id(policy.model.calibrator))
            batches.setdefault(key, []).append((task, record, rows))

        for members in batches.values():
            decision_maker = members[0][0].policy.model.decision_maker
            calibrator = members[0][0].policy.model.calibrator
            if len(members) == 1:
                task, record, rows = members[0]
                levels = decision_maker.predict_levels(
                    rows, task.policy.working_preset)
                insts = calibrator.predict_instructions_batch(rows, levels)
                task.simulator.apply_decision(
                    task.policy.fused_commit(record, levels, insts))
                self._count("fused_solo_decisions")
                continue
            all_rows = [row for _, _, rows in members for row in rows]
            presets = np.concatenate([
                np.full(len(rows), task.policy.working_preset)
                for task, _, rows in members])
            levels = decision_maker.predict_levels(all_rows, presets)
            insts = calibrator.predict_instructions_batch(all_rows, levels)
            offset = 0
            for task, record, rows in members:
                count = len(rows)
                task.simulator.apply_decision(task.policy.fused_commit(
                    record, levels[offset:offset + count],
                    insts[offset:offset + count]))
                offset += count
            self._count("fused_inference_groups")
            self._count("fused_inference_rows", len(all_rows))


def run_fused(entries: list[tuple], *,
              keep_records: bool = True,
              max_epochs: int = 100_000,
              stats_counters: dict[str, int] | None = None
              ) -> list[RunResult]:
    """Convenience wrapper: fuse ``(task_id, simulator, policy)`` tuples."""
    engine = FusedCampaignEngine(stats_counters=stats_counters)
    for task_id, simulator, policy in entries:
        engine.add_task(task_id, simulator, policy,
                        max_epochs=max_epochs, keep_records=keep_records)
    return engine.run()
