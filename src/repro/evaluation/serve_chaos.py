"""Serve-chaos certification: seeded fault trains against the runtime.

The chaos soak (PR 5) certifies the *controller*; the fleet chaos
harness (PR 8) certifies the *scheduler*; this harness certifies the
always-on **serving runtime**: it replays seeded fault trains — worker
crashes and hangs, inference stalls, telemetry storms and gaps,
poisoned online updates, overload bursts — through full
:class:`~repro.serve.runtime.ServingRuntime` runs and asserts five
invariants:

1. **No invalid decision is ever served.**  The runtime's
   ``serve_invalid_decisions`` counter must stay zero and every served
   level must lie inside the V/f table.
2. **Conservation** — ``served + shed + failed == submitted`` for
   every trial (no request lost or double-accounted across crashes,
   restarts and sheds).
3. **Bounded recovery** — every worker outage resolves within the
   recovery budget and no worker is still down (excluding terminal
   quarantine) after the drain window.
4. **Determinism** — a fixed seed exports a byte-identical payload at
   any phase-1 worker count (checked by a dual replay at a second
   worker count).
5. **Shed discipline** — no deadline-class request is ever shed while
   the system is under capacity (audited through the queue's
   per-shed culpability records).

The trial loop, the dual replay and a crash-write torture pass come
from :mod:`repro.evaluation.certify`; the torture kills the artifact
store mid-write at sampled offsets and asserts no torn read.  The CLI
gate is ``repro-ssmdvfs serve-chaos``: exit 0 only when every invariant
held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from ..errors import ServeError
from ..faults import ServeFaultConfig
from ..gpu.arch import GPUArchConfig
from ..parallel import CampaignStats
from ..serve import ServeConfig, ServeResult, ServingRuntime
from ..store import ArtifactStore
from .certify import (CertifyResult, certify_crash_writes,
                      check_campaign_config, run_trials)

#: Default chaotic fault mix (expected events per target per run).
CHAOS_FAULTS = ServeFaultConfig(crash_rate=1.5, hang_rate=1.0,
                                stall_rate=1.0, storm_rate=1.0,
                                gap_rate=1.0, poison_rate=1.0,
                                burst_rate=1.0)


@dataclass(frozen=True)
class ServeChaosConfig:
    """Knobs of one serve-chaos campaign (all five invariants included).

    Each trial derives its own fault train and arrival jitter from
    ``seed`` through the serve config's ``with_seed``;
    ``determinism_trials`` of them are replayed twice (at two phase-1
    worker counts) to pin invariant 4 without doubling every trial.
    ``recovery_budget_ticks`` must cover the supervisor's worst-case
    backoff plus one liveness window — the bound invariant 3 enforces.
    """

    trials: int = 3
    determinism_trials: int = 1
    seed: int = 0
    serve: ServeConfig = field(
        default_factory=lambda: ServeConfig(faults=CHAOS_FAULTS))
    recovery_budget_ticks: int = 48
    crash_write_trials: int = 16

    def __post_init__(self) -> None:
        check_campaign_config(self, self.serve.faults, ServeError,
                              "serve chaos")
        if self.recovery_budget_ticks < 1:
            raise ServeError("recovery_budget_ticks must be >= 1")
        floor = (self.serve.supervisor.backoff_cap_ticks
                 + self.serve.supervisor.liveness_ticks)
        if self.recovery_budget_ticks < floor:
            raise ServeError(
                f"recovery_budget_ticks {self.recovery_budget_ticks} is "
                f"below the supervisor's own worst case {floor}")


@dataclass
class ServeChaosTrial:
    """One seeded fault train replayed through the serving runtime."""

    trial: int
    seed: int
    fault_counts: dict[str, int]
    submitted: int
    served: int
    shed: int
    failed: int
    conserved: bool
    byte_stable: bool | None  # None when the dual-run check was skipped
    recoveries: int
    max_recovery_ticks: int
    quarantined: int
    unrecovered: int
    invalid_decisions: int
    bad_deadline_sheds: int


@dataclass
class ServeChaosResult(CertifyResult):
    """Aggregate serve-chaos outcome: trial records + invariant verdicts."""

    VIOLATIONS_HEADING: ClassVar[str] = "SERVE INVARIANT VIOLATIONS:"
    ALL_HELD: ClassVar[str] = "all serving invariants held"

    policy_name: str
    streams: int
    num_workers: int
    trials: list[ServeChaosTrial] = field(default_factory=list)

    def header_payload(self) -> dict:
        """Header payload entries (see :class:`CertifyResult`)."""
        return {"policy": self.policy_name, "streams": self.streams,
                "num_workers": self.num_workers}

    def table(self) -> list[str]:
        """Report title, column header and one line per row."""
        lines = [f"serve chaos  policy={self.policy_name}  "
                 f"streams={self.streams}  workers={self.num_workers}  "
                 f"seed={self.seed}",
                 f"{'trial':>5s} {'faults':>6s} {'subm':>5s} {'served':>6s} "
                 f"{'shed':>5s} {'fail':>5s} {'recov':>5s} {'maxrt':>5s} "
                 f"{'conserved':>9s} {'stable':>6s}"]
        for trial in self.trials:
            stable = ("-" if trial.byte_stable is None
                      else ("yes" if trial.byte_stable else "NO"))
            lines.append(
                f"{trial.trial:5d} {sum(trial.fault_counts.values()):6d} "
                f"{trial.submitted:5d} {trial.served:6d} {trial.shed:5d} "
                f"{trial.failed:5d} {trial.recoveries:5d} "
                f"{trial.max_recovery_ticks:5d} "
                f"{'yes' if trial.conserved else 'NO':>9s} {stable:>6s}")
        return lines


# ---------------------------------------------------------------------------
# The chaos campaign
# ---------------------------------------------------------------------------

def _run_trial(arch: GPUArchConfig, config: ServeChaosConfig,
               trial_seed: int, model_bytes: bytes | None,
               store_root: Path | None, workers: int | None,
               stats: CampaignStats) -> ServeResult:
    """One seeded serving replay from a pristine model + store state."""
    model = None
    if model_bytes is not None:
        from ..core.combined import SSMDVFSModel
        model = SSMDVFSModel.from_bytes(model_bytes)
    runtime = ServingRuntime(arch, config.serve.with_seed(trial_seed),
                             model=model, store_root=store_root,
                             workers=workers, stats=stats)
    return runtime.run()


def _summarise(trial: int, trial_seed: int, serve: ServeResult,
               byte_stable: bool | None) -> tuple[ServeChaosTrial, tuple]:
    """The trial's row plus the counter maps it contributes."""
    record = ServeChaosTrial(
        trial=trial, seed=trial_seed,
        fault_counts=dict(serve.fault_counts),
        submitted=serve.submitted, served=serve.served,
        shed=serve.shed, failed=serve.failed,
        conserved=serve.conserved, byte_stable=byte_stable,
        recoveries=len(serve.recovery_ticks),
        max_recovery_ticks=(max(serve.recovery_ticks)
                            if serve.recovery_ticks else 0),
        quarantined=serve.quarantined,
        unrecovered=serve.unrecovered,
        invalid_decisions=serve.counters.get("serve_invalid_decisions", 0),
        bad_deadline_sheds=sum(
            1 for shed in serve.shed_records
            if shed.deadline_class and shed.under_capacity))
    return record, (serve.counters,)


def _check_trial(result: ServeResult, record: ServeChaosTrial,
                 budget_ticks: int, violations: list[str]) -> None:
    """Assert the per-trial serving invariants, appending violations."""
    prefix = f"trial {record.trial}"
    if record.invalid_decisions:
        violations.append(
            f"{prefix}: {record.invalid_decisions} invalid decisions "
            f"reached the serve boundary — the validation layer leaked")
    if record.served == 0:
        violations.append(
            f"{prefix}: the runtime served nothing — every request was "
            f"shed or failed, which no fault train here justifies")
    if result.min_level_served is not None and result.num_levels:
        if not (0 <= result.min_level_served
                and result.max_level_served < result.num_levels):
            violations.append(
                f"{prefix}: served levels "
                f"[{result.min_level_served}, {result.max_level_served}] "
                f"escape the V/f table [0, {result.num_levels})")
    if not record.conserved:
        violations.append(
            f"{prefix}: request conservation broken — submitted "
            f"{record.submitted} != served {record.served} + shed "
            f"{record.shed} + failed {record.failed}")
    if record.max_recovery_ticks > budget_ticks:
        violations.append(
            f"{prefix}: a worker outage took {record.max_recovery_ticks} "
            f"ticks to recover (budget {budget_ticks})")
    if record.unrecovered:
        violations.append(
            f"{prefix}: {record.unrecovered} worker(s) still down after "
            f"the drain window without being quarantined")
    if record.byte_stable is False:
        violations.append(
            f"{prefix}: export payload differs between serial and "
            f"parallel replay of the same seed")
    if record.bad_deadline_sheds:
        violations.append(
            f"{prefix}: {record.bad_deadline_sheds} deadline-class "
            f"request(s) shed while the system was under capacity")


def run_serve_chaos(arch: GPUArchConfig,
                    config: ServeChaosConfig | None = None, *,
                    model=None, store_root: str | Path | None = None,
                    workers: int | None = None,
                    stats: CampaignStats | None = None
                    ) -> ServeChaosResult:
    """Run the serve-chaos campaign; returns trial records + verdicts.

    ``model`` is an optional :class:`~repro.core.combined.SSMDVFSModel`
    pair (None certifies the governor-backed runtime, which keeps the
    smoke model-free); each trial rebuilds it from bytes so trials and
    determinism replays start from identical state.  ``store_root``
    hosts one store subdirectory per replay plus the crash-write
    torture victim.  The whole result is a pure function of
    ``(arch, config, model)``.
    """
    config = config or ServeChaosConfig()
    stats = stats if stats is not None else CampaignStats()
    model_bytes = model.to_bytes() if model is not None else None
    root = Path(store_root) if store_root is not None else None
    policy_name = ("ssmdvfs+serve" if model is not None
                   else "governor+serve")
    result = ServeChaosResult(policy_name=policy_name,
                              streams=config.serve.streams,
                              num_workers=config.serve.num_workers,
                              seed=config.seed)

    def replay(trial_seed, run_workers, run_stats, run_name):
        return _run_trial(arch, config, trial_seed, model_bytes,
                          root / run_name if root is not None else None,
                          run_workers, run_stats)

    def check(serve, record, violations):
        _check_trial(serve, record, config.recovery_budget_ticks, violations)

    first_payload = run_trials(result, "serve-chaos", config, workers,
                               stats, replay, _summarise, check)
    if root is not None and config.crash_write_trials:
        certify_crash_writes(result, ArtifactStore(root / "torture"),
                             "serve-chaos-export",
                             first_payload or b"chaos",
                             config.crash_write_trials)
    return result
