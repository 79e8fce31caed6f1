"""Top-level GPU simulator.

Ties the per-cluster execution engine, the power model, and a DVFS
policy together into the 10 µs epoch loop of the paper:

1. every cluster runs one epoch at its current operating point,
2. counters and power are produced per cluster,
3. the policy observes the epoch record and returns the next operating
   point per cluster (or one level broadcast to all).

The simulator also provides the snapshot/restore and
run-until-instruction-mark primitives that the data-generation protocol
(§III-A) needs to replay the same 100 µs segment at each V/f point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from ..errors import SimulationError, SnapshotError
from ..power.energy import EnergyAccount
from ..power.model import PowerModel
from ..rng import StreamFactory
from ..units import us
from .arch import GPUArchConfig
from .cluster import (A_BUSY_S, NUM_ACTIVITY_SLOTS, ClusterState,
                      build_counters_matrix)
from .counters import COUNTER_INDEX, CounterSet
from .interval_model import SolutionCache
from .kernels import KernelProfile
from .noise import WorkloadNoise
from .quantum import run_epoch_batch

#: Default DVFS epoch length: the paper's 10 µs resolution.
DEFAULT_EPOCH_S = us(10.0)


@dataclass
class EpochRecord:
    """Everything observable at the end of one DVFS epoch."""

    index: int
    start_time_s: float
    duration_s: float
    levels: list[int]
    counters: CounterSet
    cluster_counters: list[CounterSet]
    instructions: float
    cluster_energy_j: float
    uncore_energy_j: float
    all_finished: bool
    finish_time_s: float

    @property
    def energy_j(self) -> float:
        """Total GPU energy of the epoch."""
        return self.cluster_energy_j + self.uncore_energy_j

    @property
    def end_time_s(self) -> float:
        """Wall-clock time at the end of this epoch."""
        return self.start_time_s + self.duration_s


class DVFSPolicy(Protocol):
    """Anything that can steer per-cluster V/f from epoch records."""

    name: str

    def reset(self, simulator: "GPUSimulator") -> None:
        """Called once before a run starts."""

    def decide(self, record: EpochRecord) -> int | Sequence[int]:
        """Return the level(s) for the next epoch."""


@dataclass
class RunResult:
    """Outcome of a full policy-driven run."""

    policy_name: str
    kernel_name: str
    account: EnergyAccount
    epochs: int
    records: list[EpochRecord] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        """Total wall-clock time of the run.

        Equals the sum of the record durations: the run loop truncates
        the final partial epoch's record to the drain point.
        """
        return self.account.time_s

    @property
    def energy_j(self) -> float:
        """Total energy of the run."""
        return self.account.energy_j

    @property
    def edp(self) -> float:
        """Energy-delay product of the run."""
        return self.account.edp


class GPUSimulator:
    """Epoch-stepped multi-cluster GPU simulator with per-cluster DVFS."""

    def __init__(self, arch: GPUArchConfig,
                 kernel: KernelProfile | Sequence[KernelProfile],
                 power_model: PowerModel | None = None,
                 seed: int | None = None,
                 epoch_s: float = DEFAULT_EPOCH_S,
                 solution_cache: SolutionCache | None = None,
                 noise_cache: dict | None = None) -> None:
        if epoch_s <= 0:
            raise SimulationError("epoch length must be positive")
        self.arch = arch
        # Heterogeneous (multi-tenant) mode: a list of kernels is dealt
        # round-robin across clusters — the scenario where *per-cluster*
        # DVFS pays off over any single chip-wide setting.
        if isinstance(kernel, KernelProfile):
            kernels = [kernel]
        else:
            kernels = list(kernel)
            if not kernels:
                raise SimulationError("need at least one kernel")
        self.kernel = kernels[0]
        self.kernels = kernels
        self.power_model = (power_model
                            or PowerModel.scaled_for(arch.num_clusters))
        self.epoch_s = float(epoch_s)
        self.seed = seed
        streams = StreamFactory() if seed is None else StreamFactory(seed)
        # One solution cache shared by every cluster: clusters running
        # the same kernel at the same operating point reuse each other's
        # solves (and datagen replays reuse everything).  Passing
        # ``solution_cache`` shares one cache *across* simulators — the
        # fused campaign engine's cross-task reuse path.  Keys capture
        # every solver input bit-exactly, so sharing never changes
        # results, only hit rates.
        self.solution_cache = (solution_cache if solution_cache is not None
                               else SolutionCache())
        self.clusters: list[ClusterState] = []
        skew_rngs = {k.name: streams.get(f"skew.{k.name}") for k in kernels}
        for cid in range(arch.num_clusters):
            cluster_kernel = kernels[cid % len(kernels)]
            # ``noise_cache`` shares WorkloadNoise objects *across*
            # simulators with the same seed.  The key captures every
            # input that determines a noise stream's values — the seed,
            # the cluster slot, the kernel name (the stream name) and
            # the jitter sigma — and tracks are position-indexed,
            # append-only and generated sequentially from one RNG, so
            # whichever co-simulated task extends the track first
            # materialises exactly the values every sharer would have
            # generated alone.  Sharing changes wall-clock, never bits.
            noise = None
            if noise_cache is not None and seed is not None:
                noise_key = (seed, cid, cluster_kernel.name,
                             cluster_kernel.jitter)
                noise = noise_cache.get(noise_key)
            if noise is None:
                noise = WorkloadNoise(
                    streams.get(f"noise.{cluster_kernel.name}.c{cid}"),
                    sigma=cluster_kernel.jitter,
                )
                if noise_cache is not None and seed is not None:
                    noise_cache[noise_key] = noise
            max_skew = max(1.0, cluster_kernel.phases[0].instructions * 0.25)
            skew = float(skew_rngs[cluster_kernel.name].uniform(0.0, max_skew))
            self.clusters.append(
                ClusterState(arch, cluster_kernel, noise, cluster_id=cid,
                             skew_instructions=skew,
                             solution_cache=self.solution_cache)
            )
        self.time_s = 0.0
        self.epoch_index = 0
        # Preallocated per-epoch buffers: the epoch engine writes
        # activity vectors straight into ``_activity_buf`` and power
        # evaluation reads constant duration / table-indexed voltage
        # arrays instead of rebuilding them per epoch.
        n = arch.num_clusters
        self._activity_buf = np.zeros((n, NUM_ACTIVITY_SLOTS),
                                      dtype=np.float64)
        self._durations = np.full(n, self.epoch_s, dtype=np.float64)
        self._voltage_by_level = np.array(
            [arch.vf_table[lv].voltage_v
             for lv in range(arch.vf_table.num_levels)], dtype=np.float64)

    @property
    def workload_name(self) -> str:
        """Display name: single kernel, or '+'-joined tenant mix."""
        if len(self.kernels) == 1:
            return self.kernel.name
        return "+".join(k.name for k in self.kernels)

    # ------------------------------------------------------------------
    # State inspection / control
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every cluster has completed the kernel."""
        return all(c.finished for c in self.clusters)

    @property
    def levels(self) -> list[int]:
        """Current operating-point level per cluster."""
        return [c.level for c in self.clusters]

    def mean_instructions_done(self) -> float:
        """Mean per-cluster instructions completed since kernel start."""
        return (sum(c.instructions_done for c in self.clusters)
                / len(self.clusters))

    def set_all_levels(self, level: int) -> None:
        """Switch every cluster to the same operating point."""
        for cluster in self.clusters:
            cluster.set_level(level)

    def apply_decision(self, decision: int | Sequence[int]) -> None:
        """Apply a policy decision (scalar broadcast or per-cluster).

        Scalars are detected via :class:`numbers.Real` / ``np.ndim`` so
        numpy scalars (an MLP argmax returns ``np.int64``) and 0-d
        arrays broadcast like plain ints instead of being mistaken for
        per-cluster sequences.
        """
        if isinstance(decision, numbers.Real) or np.ndim(decision) == 0:
            self.set_all_levels(int(decision))
            return
        levels = list(decision)
        if len(levels) != len(self.clusters):
            raise SimulationError(
                f"expected {len(self.clusters)} levels, got {len(levels)}"
            )
        for cluster, level in zip(self.clusters, levels):
            cluster.set_level(int(level))

    # ------------------------------------------------------------------
    # Epoch stepping
    # ------------------------------------------------------------------
    def step_epoch(self) -> EpochRecord:
        """Run one DVFS epoch on every cluster and account power.

        One :func:`~repro.gpu.quantum.run_epoch_batch` call advances all
        clusters; its ``(clusters, slots)`` activity matrix then feeds
        one counter-matrix build and one batched power evaluation.
        """
        if self.finished:
            raise SimulationError("cannot step a finished simulation")
        levels = self.levels
        result = run_epoch_batch(self.clusters, self.epoch_s,
                                 matrix_out=self._activity_buf)
        activity_matrix = result.matrix
        counters_matrix = build_counters_matrix(activity_matrix, self.arch)
        dynamic_w, static_w, energy_j = self.power_model.cluster_power_batch(
            activity_matrix, self._durations,
            self._voltage_by_level[levels])
        counters_matrix[:, COUNTER_INDEX["power_per_core"]] = (dynamic_w
                                                               + static_w)
        counters_matrix[:, COUNTER_INDEX["power_dynamic"]] = dynamic_w
        counters_matrix[:, COUNTER_INDEX["power_static"]] = static_w
        counters_matrix[:, COUNTER_INDEX["energy_epoch"]] = energy_j
        cluster_counters = [CounterSet.from_vector(row)
                            for row in counters_matrix]
        cluster_energy = float(energy_j.sum())
        uncore = self.power_model.uncore_power(activity_matrix, self.epoch_s)

        record = EpochRecord(
            index=self.epoch_index,
            start_time_s=self.time_s,
            duration_s=self.epoch_s,
            levels=levels,
            counters=CounterSet.from_vector(counters_matrix.mean(axis=0)),
            cluster_counters=cluster_counters,
            instructions=sum(result.instructions.tolist()),
            cluster_energy_j=cluster_energy,
            uncore_energy_j=uncore.energy_j,
            all_finished=all(result.finished.tolist()),
            finish_time_s=max(activity_matrix[:, A_BUSY_S].tolist(),
                              default=0.0),
        )
        self.time_s += self.epoch_s
        self.epoch_index += 1
        return record

    def _final_epoch_adjustment(self, record: EpochRecord) -> tuple[float, float]:
        """Effective (time, energy) of a run-ending epoch.

        Clusters finish mid-epoch; the program is done once the last
        busy cluster drains, so the idle tail's static/clock power is
        refunded and time is truncated to the drain point.  This is the
        non-mutating variant; :meth:`truncate_final_record` additionally
        rewrites the record so stored records stay consistent with the
        energy account.
        """
        effective_time = min(record.duration_s, max(record.finish_time_s, 1e-12))
        unused = record.duration_s - effective_time
        static_total = sum(c["power_static"] for c in record.cluster_counters)
        static_total += self.power_model.config.uncore_static_w
        refund = unused * static_total
        effective_energy = max(0.0, record.energy_j - refund)
        return effective_time, effective_energy

    def truncate_final_record(self, record: EpochRecord
                              ) -> tuple[float, float]:
        """Truncate a run-ending record *in place* to the drain point.

        Historically only the energy account was adjusted while the
        record kept its full ``duration_s``, so ``RunResult.time_s``
        disagreed with the summed record durations by up to one epoch.
        Mutating the record keeps the two views consistent: the idle
        tail's time is cut and its static/clock energy refunded per
        component (cluster vs uncore), mirroring
        :meth:`_final_epoch_adjustment`'s totals.
        """
        effective_time = min(record.duration_s,
                             max(record.finish_time_s, 1e-12))
        unused = record.duration_s - effective_time
        cluster_static = sum(c["power_static"]
                             for c in record.cluster_counters)
        uncore_static = self.power_model.config.uncore_static_w
        record.duration_s = effective_time
        record.cluster_energy_j = max(
            0.0, record.cluster_energy_j - unused * cluster_static)
        record.uncore_energy_j = max(
            0.0, record.uncore_energy_j - unused * uncore_static)
        return record.duration_s, record.energy_j

    def run(self, policy: DVFSPolicy, max_epochs: int = 100_000,
            keep_records: bool = True) -> RunResult:
        """Run the kernel to completion under ``policy``.

        The returned result is internally consistent: the final partial
        epoch's record is truncated to the drain point, so
        ``RunResult.time_s`` equals the sum of the record durations and
        ``RunResult.energy_j`` the sum of the record energies.
        """
        policy.reset(self)
        account = EnergyAccount()
        records: list[EpochRecord] = []
        epochs = 0
        while not self.finished:
            if epochs >= max_epochs:
                raise SimulationError(
                    f"run exceeded {max_epochs} epochs; kernel "
                    f"{self.workload_name!r} may be too long for this budget"
                )
            record = self.step_epoch()
            epochs += 1
            if record.all_finished:
                time_s, energy_j = self.truncate_final_record(record)
                account.add(energy_j, time_s)
            else:
                account.add(record.energy_j, record.duration_s)
                decision = policy.decide(record)
                self.apply_decision(decision)
            if keep_records:
                records.append(record)
        return RunResult(
            policy_name=policy.name,
            kernel_name=self.workload_name,
            account=account,
            epochs=epochs,
            records=records,
        )

    def run_epochs_at_level(self, level: int, num_epochs: int) -> list[EpochRecord]:
        """Run ``num_epochs`` epochs pinned at one operating point."""
        self.set_all_levels(level)
        records = []
        for _ in range(num_epochs):
            if self.finished:
                break
            records.append(self.step_epoch())
        return records

    def run_until_instructions(self, target_mean_instructions: float,
                               max_epochs: int = 100_000) -> list[EpochRecord]:
        """Run at current levels until the mean per-cluster instruction
        count reaches ``target_mean_instructions`` (or the kernel ends).

        This is the "resume until the breakpoint-relative workload mark"
        primitive of the data-generation protocol (§III-A): total
        workload is held constant across V/f variants by running to an
        instruction mark, not to a time mark.

        The mark is crossed mid-epoch, and the final record deliberately
        keeps its full ``duration_s`` — no truncation is applied because
        the simulator genuinely ran (and spent energy over) the whole
        epoch.  Callers needing sub-epoch resolution interpolate within
        that final epoch, as the data-generation protocol does.
        """
        records = []
        epochs = 0
        while (not self.finished
               and self.mean_instructions_done() < target_mean_instructions):
            if epochs >= max_epochs:
                raise SimulationError("instruction mark never reached")
            records.append(self.step_epoch())
            epochs += 1
        return records

    # ------------------------------------------------------------------
    # Snapshots (for data-generation replay)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture full replayable simulator state.

        The cluster snapshots cover every piece of mutable run state
        (cursor position, operating point, pending transition charge);
        the noise tracks are position-indexed and deterministic per
        seed, so they need no capture — *provided* the restoring
        simulator was built with the same seed.  The seed is therefore
        recorded and validated on restore: a different-seed simulator
        would silently replay different noise/skew streams.
        """
        return {
            "kernel_name": self.workload_name,
            "epoch_s": self.epoch_s,
            "seed": self.seed,
            "time_s": self.time_s,
            "epoch_index": self.epoch_index,
            "clusters": [c.snapshot() for c in self.clusters],
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot` on this instance."""
        if state.get("kernel_name") != self.workload_name:
            raise SnapshotError(
                "snapshot belongs to a different workload "
                f"({state.get('kernel_name')!r} != {self.workload_name!r})"
            )
        snapshot_epoch = state.get("epoch_s", self.epoch_s)
        if snapshot_epoch != self.epoch_s:
            raise SnapshotError(
                f"snapshot taken with epoch length {snapshot_epoch!r}, "
                f"simulator runs {self.epoch_s!r}; resuming would silently "
                "mix epoch timings"
            )
        snapshot_seed = state.get("seed", self.seed)
        if snapshot_seed != self.seed:
            raise SnapshotError(
                f"snapshot taken with seed {snapshot_seed!r}, simulator "
                f"built with {self.seed!r}; the noise/skew streams would "
                "diverge and the replayed epoch stream would not match"
            )
        if len(state["clusters"]) != len(self.clusters):
            raise SnapshotError("snapshot cluster count mismatch")
        self.time_s = state["time_s"]
        self.epoch_index = state["epoch_index"]
        for cluster, cluster_state in zip(self.clusters, state["clusters"]):
            cluster.restore(cluster_state)
