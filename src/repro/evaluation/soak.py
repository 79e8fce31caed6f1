"""Chaos-soak harness: long-horizon runs under compound failure.

The fault sweep (:mod:`repro.evaluation.robustness`) answers "how does
one fault dimension degrade the controller?".  The soak answers the
deployment question: with *everything* misbehaving at once — noisy
sensors, a model pair silently going stale mid-run, and the artifact
store being killed mid-write — does the stack detect, recover, and
keep its promises?  Three invariants are checked continuously:

1. **No NaN ever reaches a decision** — every actuated level list is
   re-validated outside the guard; a single malformed decision fails
   the soak.
2. **Bounded performance loss** — end-to-end normalized latency stays
   within ``preset + LATENCY_SLACK`` despite the injected chaos (the
   guard's fallback is the baseline operating point, so a healthy
   recovery cannot blow the budget).
3. **Bounded recovery** — after the mid-run staleness injection the
   drift monitor must alarm and the guard must heal (hot-swap from the
   registry's last-known-good pair, or pin the static fallback) within
   ``recovery_epochs``.

A crash-write torture phase
(:func:`~repro.evaluation.certify.crash_write_torture`) additionally
kills :meth:`ArtifactStore.put` at sampled byte offsets and asserts
every subsequent read returns the old payload or the new one, never
garbage.  Results are seeded and
JSON-exportable; ``repro-ssmdvfs soak`` and the CI ``soak-smoke``
target gate on :attr:`SoakResult.passed`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from ..core.combined import PAIR_SCHEMA, SSMDVFSModel
from ..core.controller import SSMDVFSController
from ..core.drift import DriftMonitor, RollbackManager
from ..core.guarded import GuardedController
from ..core.policy import StaticPolicy, policy_counters, validate_decision
from ..errors import PolicyError
from ..faults import FaultConfig, FaultyPolicy
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import GPUSimulator
from ..power.model import PowerModel
from ..store import ArtifactStore
from ..units import us
from .certify import CertifyResult, certify_crash_writes

#: Registry key under which the soak stores its model pair.
SOAK_ARTIFACT = "soak-pair"
#: Registry key the crash-write torture writes to.
SOAK_TORTURE_ARTIFACT = "soak-torture"

#: Guard tolerance on top of the preset for invariant 2 (fraction of
#: the fault-free baseline latency).
LATENCY_SLACK = 0.15
#: Consecutive invalid decisions before the soak's guard trips.
TRIP_THRESHOLD = 4
#: Epoch cap of one soak run (far beyond any suite kernel's length).
MAX_EPOCHS = 100_000
#: Where the staleness injection lands, as a fraction of the kernel's
#: fault-free epoch count: late enough for the pair to have settled,
#: early enough to leave room for recovery.
STALE_FRACTION = 0.3


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one chaos-soak scenario (all invariants included).

    ``faults`` defaults to the "1 % flaky sensor" deployment story:
    one dropped counter window per hundred plus rare NaN poisonings
    and spikes.  ``stale_sigma`` scales the weight perturbation
    relative to each layer's weight spread (3x is unambiguous garbage —
    the soak tests recovery, not detection sensitivity).
    ``recovery_epochs`` budgets detection + rollback.
    """

    preset: float = 0.10
    seed: int = 3
    faults: FaultConfig = field(default_factory=lambda: FaultConfig(
        counter_dropout=0.01, counter_nan=0.0005, counter_spike=0.0005))
    stale_sigma: float = 3.0
    recovery_epochs: int = 60
    crash_write_trials: int = 32

    def __post_init__(self) -> None:
        if self.preset < 0:
            raise PolicyError("preset cannot be negative")
        if self.stale_sigma <= 0:
            raise PolicyError("stale_sigma must be positive")
        if self.recovery_epochs < 1:
            raise PolicyError("recovery_epochs must be >= 1")
        if self.crash_write_trials < 0:
            raise PolicyError("crash_write_trials cannot be negative")


@dataclass
class KernelSoak:
    """Per-kernel soak outcome (one long-horizon run)."""

    kernel_name: str
    epochs: int
    baseline_epochs: int
    stale_epoch: int
    alarm_epoch: int | None
    healed_epoch: int | None
    healed_by: str | None  # "hot_swap" | "pinned_fallback"
    normalized_latency: float
    normalized_edp: float
    invalid_decisions: int


@dataclass
class SoakResult(CertifyResult):
    """Aggregate soak outcome: per-kernel records + invariant verdicts."""

    ROWS: ClassVar[str] = "records"
    ALL_HELD: ClassVar[str] = "all soak invariants held"

    preset: float
    latency_tolerance: float
    records: list[KernelSoak] = field(default_factory=list)

    def header_payload(self) -> dict:
        """Header payload entries (see :class:`CertifyResult`)."""
        return {"preset": self.preset,
                "latency_tolerance": self.latency_tolerance}

    def table(self) -> list[str]:
        """Report title, column header and one line per row."""
        lines = [f"chaos soak  preset={self.preset:.2f}  "
                 f"latency tolerance={self.latency_tolerance:.2f}  "
                 f"seed={self.seed}",
                 f"{'kernel':24s} {'epochs':>6s} {'stale@':>6s} "
                 f"{'alarm@':>6s} {'heal@':>6s} {'heal by':>16s} "
                 f"{'latency':>8s} {'edp':>6s}"]
        for record in self.records:
            alarm = "-" if record.alarm_epoch is None else str(record.alarm_epoch)
            heal = "-" if record.healed_epoch is None else str(record.healed_epoch)
            lines.append(
                f"{record.kernel_name:24s} {record.epochs:6d} "
                f"{record.stale_epoch:6d} {alarm:>6s} {heal:>6s} "
                f"{record.healed_by or '-':>16s} "
                f"{record.normalized_latency:8.3f} "
                f"{record.normalized_edp:6.3f}")
        return lines


# ---------------------------------------------------------------------------
# Chaos injections
# ---------------------------------------------------------------------------

def perturb_model_weights(model: SSMDVFSModel, sigma: float,
                          rng: np.random.Generator) -> None:
    """Silently corrupt a pair in place (the staleness injection).

    Every layer of both heads gets Gaussian noise scaled by ``sigma``
    times its own weight spread — the in-memory analogue of serving a
    model trained on data the GPU no longer resembles.  The object
    keeps quacking like a healthy pair; only its *predictions* rot,
    which is exactly what the drift monitor must catch.
    """
    for mlp in (model.decision_model, model.calibrator_model):
        for layer in mlp.layers:
            spread = float(np.std(layer.weights))
            scale = sigma * (spread if spread > 0 else 1.0)
            layer.weights += rng.normal(0.0, scale, size=layer.weights.shape)
            layer.bias += rng.normal(0.0, scale, size=layer.bias.shape)


# ---------------------------------------------------------------------------
# The soak itself
# ---------------------------------------------------------------------------

class _SoakProbe:
    """Policy wrapper that runs the soak's chaos and checks per epoch.

    At ``stale_epoch`` it silently corrupts whichever pair is serving.
    Every decision is re-validated *outside* the whole policy stack
    (invariant 1): a malformed one is counted and replaced by the
    default level, so the soak keeps collecting evidence.  From the
    injection on, the policy's counters are polled for the first drift
    alarm and the first heal.
    """

    def __init__(self, policy: FaultyPolicy, guarded: GuardedController,
                 stale_epoch: int, stale_sigma: float,
                 rng: np.random.Generator) -> None:
        self.policy = policy
        self.name = policy.name
        self.guarded = guarded
        self.stale_epoch = stale_epoch
        self.stale_sigma = stale_sigma
        self.rng = rng
        self.alarm_epoch: int | None = None
        self.healed_epoch: int | None = None
        self.healed_by: str | None = None
        self.invalid_decisions = 0
        # A badly-fitted pair may drift and get healed *before* the
        # injection; only detections of the injected staleness count,
        # so episode counts are snapshotted at the injection epoch.
        self._before = Counter()

    def reset(self, simulator: GPUSimulator) -> None:
        self.policy.reset(simulator)
        self.table = simulator.arch.vf_table
        self.num_clusters = len(simulator.clusters)

    def _grew(self, counters: Counter, name: str) -> bool:
        return counters[name] > self._before[name]

    def decide(self, record) -> list[int]:
        epoch = record.index + 1
        if epoch == self.stale_epoch:
            victim = getattr(self.guarded.inner, "model", None)
            if victim is not None:
                perturb_model_weights(victim, self.stale_sigma, self.rng)
            self._before = policy_counters(self.policy)
        decision = self.policy.decide(record)
        try:
            levels = validate_decision(decision, self.table.num_levels,
                                       self.num_clusters)
        except PolicyError:
            self.invalid_decisions += 1
            levels = [self.table.default_level] * self.num_clusters
        if epoch >= self.stale_epoch and (self.alarm_epoch is None
                                          or self.healed_epoch is None):
            counters = policy_counters(self.policy)
            if self.alarm_epoch is None and self._grew(counters,
                                                       "drift_alarms"):
                self.alarm_epoch = epoch
            if self.healed_epoch is None:
                if self._grew(counters, "rollback_hot_swaps"):
                    self.healed_epoch, self.healed_by = epoch, "hot_swap"
                elif self._grew(counters, "rollback_pinned_fallback"):
                    self.healed_epoch = epoch
                    self.healed_by = "pinned_fallback"
        return levels


def _soak_one_kernel(model: SSMDVFSModel, kernel: KernelProfile,
                     arch: GPUArchConfig, store: ArtifactStore,
                     config: SoakConfig,
                     seed: int) -> tuple[KernelSoak, Counter]:
    """One long-horizon run with faults + mid-run staleness injection."""
    power_model = PowerModel()
    baseline = GPUSimulator(arch, kernel, power_model, seed=seed,
                            epoch_s=us(10)).run(
        StaticPolicy(arch.vf_table.default_level), keep_records=False)
    stale_epoch = max(2, int(baseline.epochs * STALE_FRACTION))

    controller = SSMDVFSController(model, preset=config.preset)
    rollback = RollbackManager(
        store, SOAK_ARTIFACT,
        lambda restored: SSMDVFSController(restored, preset=config.preset))
    guarded = GuardedController(controller, trip_threshold=TRIP_THRESHOLD,
                                drift_monitor=DriftMonitor(),
                                rollback=rollback)
    policy = FaultyPolicy(guarded, config.faults.with_seed(seed))
    probe = _SoakProbe(policy, guarded, stale_epoch, config.stale_sigma,
                       np.random.default_rng(seed ^ 0x5A5A))
    run = GPUSimulator(arch, kernel, power_model, seed=seed,
                       epoch_s=us(10)).run(
        probe, max_epochs=MAX_EPOCHS, keep_records=False)

    return KernelSoak(
        kernel_name=kernel.name,
        epochs=run.epochs,
        baseline_epochs=baseline.epochs,
        stale_epoch=stale_epoch,
        alarm_epoch=probe.alarm_epoch,
        healed_epoch=probe.healed_epoch,
        healed_by=probe.healed_by,
        normalized_latency=run.time_s / baseline.time_s,
        normalized_edp=run.edp / baseline.edp,
        invalid_decisions=probe.invalid_decisions,
    ), policy_counters(policy)


def run_soak(model: SSMDVFSModel, kernels: list[KernelProfile],
             arch: GPUArchConfig, store_root: str | Path,
             config: SoakConfig | None = None) -> SoakResult:
    """Run the chaos soak; returns per-kernel records + verdicts.

    The trusted pair is registered in an :class:`ArtifactStore` at
    ``store_root`` as ``last_known_good`` before any chaos starts, so
    the drift layer has something real to roll back to — the soak run
    itself drives a *copy*, keeping the registry pristine.  The soak
    owns its two artifacts in the store: a run first drops whatever an
    earlier run left under them, so the pair is always v1.  Kernels
    run serially with per-kernel derived seeds: the whole result is a
    pure function of ``(model, kernels, arch, config)``.
    """
    config = config or SoakConfig()
    store = ArtifactStore(store_root)
    for name in (SOAK_ARTIFACT, SOAK_TORTURE_ARTIFACT):
        store.drop(name)
    store.put(SOAK_ARTIFACT, model.to_bytes(), schema=PAIR_SCHEMA,
              mark_good=True)

    result = SoakResult(
        preset=config.preset,
        latency_tolerance=1.0 + config.preset + LATENCY_SLACK,
        seed=config.seed)

    certify_crash_writes(result, store, SOAK_TORTURE_ARTIFACT,
                         model.to_bytes()[:4096] or b"soak",
                         config.crash_write_trials)

    for index, kernel in enumerate(kernels):
        # A fresh deserialised copy per kernel: the staleness injection
        # mutates weights in place and must not leak across kernels
        # (or into the caller's model).
        record, run_counters = _soak_one_kernel(
            SSMDVFSModel.from_bytes(model.to_bytes()), kernel, arch, store,
            config, seed=config.seed + 101 * index)
        result.records.append(record)
        result.counters.update(run_counters)
        if record.invalid_decisions:
            result.violations.append(
                f"{kernel.name}: {record.invalid_decisions} invalid "
                f"decisions reached the actuator")
        if record.normalized_latency > result.latency_tolerance:
            result.violations.append(
                f"{kernel.name}: normalized latency "
                f"{record.normalized_latency:.3f} exceeds tolerance "
                f"{result.latency_tolerance:.3f}")
        if record.alarm_epoch is None:
            result.violations.append(
                f"{kernel.name}: staleness injected at epoch "
                f"{record.stale_epoch} was never detected")
        elif record.healed_epoch is None:
            result.violations.append(
                f"{kernel.name}: drift alarm at epoch "
                f"{record.alarm_epoch} never healed")
        elif record.healed_epoch - record.stale_epoch > config.recovery_epochs:
            result.violations.append(
                f"{kernel.name}: recovery took "
                f"{record.healed_epoch - record.stale_epoch} epochs "
                f"(budget {config.recovery_epochs})")

    result.counters.update(store.counters)
    return result
