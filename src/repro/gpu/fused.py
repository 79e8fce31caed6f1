"""Fused multi-campaign simulation engine for the Fig. 4 policy grid.

A Fig. 4 grid is many *independent* policy runs over near-identical
simulators: the baseline and every policy, over every kernel.  The
serial path executes each run's epoch loop alone: every quantum pays
one small counter-matrix build, one small power evaluation and one
small model forward pass per run.

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

The only campaign that fuses is
:func:`repro.evaluation.runner.compare_policies` (``fused=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..power.energy import EnergyAccount
from .cluster import A_BUSY_S, build_counters_matrix
from .counters import COUNTER_INDEX, CounterSet
from .quantum import run_epoch_batch
from .simulator import EpochRecord, GPUSimulator, RunResult


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
            uncore_j = sim.power_model.uncore_power(
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
                uncore_energy_j=uncore_j,
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
