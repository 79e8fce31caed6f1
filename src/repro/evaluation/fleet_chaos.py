"""Fleet-chaos harness: randomized node-fault trains over the replay.

The chaos soak (:mod:`repro.evaluation.soak`) batters a *single*
controller stack; this harness batters the *fleet*: each trial draws a
seeded :class:`~repro.faults.NodeFaultPlan` (crashes, hangs, thermal
runaway, sensor-corruption storms) over a fresh arrival trace and
replays it through the :class:`~repro.fleet.scheduler.ClusterScheduler`
with migration and admission control live.  Four invariants are
asserted per trial:

1. **Job conservation** — ``completed + shed == submitted`` with
   unique, disjoint job ids: no job is ever lost to a crash or counted
   twice through a migration.
2. **Byte-stable export** — the same seed yields a byte-identical
   :class:`~repro.fleet.metrics.FleetResult` payload at any worker
   count, faults and migrations included (checked by re-running the
   first ``determinism_trials`` trials at a second worker count).
3. **Bounded recovery** — every quarantine resolves: the number of
   ``RECOVERING`` transitions matches the quarantines minus nodes
   whose timed outage legitimately extends past the replay's last
   event, so a node can never wedge in quarantine.
4. **Shed discipline** — admission control never sheds a
   latency-class job (only migration exhaustion or a fleet-wide
   permanent outage may), and every shed carries a known reason.

The trial loop, the dual replay and a crash-write torture phase (which
kills the export path mid-write and asserts readers never observe a
torn payload) come from :mod:`repro.evaluation.certify`.
``repro-ssmdvfs fleet-chaos`` and the CI ``fleet-chaos-smoke`` target
gate on :attr:`FleetChaosResult.passed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from ..errors import FleetError
from ..faults import NodeFaultConfig, NodeFaultEvent, NodeFaultPlan
from ..fleet.jobs import LATENCY, TraceConfig, build_trace
from ..fleet.metrics import FleetResult
from ..fleet.queue import AdmissionConfig
from ..fleet.scheduler import ClusterScheduler, MigrationConfig
from ..fleet.tracker import QUARANTINED, HealthPolicy, ThermalConfig
from ..gpu.arch import GPUArchConfig
from ..parallel import CampaignStats
from ..store import ArtifactStore
from .certify import (CertifyResult, certify_crash_writes,
                      check_campaign_config, run_trials)


@dataclass(frozen=True)
class FleetChaosConfig:
    """Knobs of one fleet-chaos campaign (all invariants included).

    Each of the ``trials`` trials derives its own fault-train and
    trace seed from ``seed``, so the whole campaign is a pure function
    of this config.  ``determinism_trials`` of them are replayed twice
    (at two worker counts) to pin invariant 2 without doubling the
    cost of every trial.  ``horizon_slack_s`` extends the fault-plan
    horizon past the last arrival so late faults can still strike
    in-flight work.
    """

    trace: str = "burst"
    jobs: int = 24
    nodes: int = 4
    load: float = 1.1
    trials: int = 3
    determinism_trials: int = 1
    seed: int = 0
    faults: NodeFaultConfig = field(default_factory=lambda: NodeFaultConfig(
        crash_rate=0.5, hang_rate=0.3, thermal_rate=0.4, storm_rate=0.4))
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig(enabled=True))
    health: HealthPolicy = field(default_factory=HealthPolicy)
    horizon_slack_s: float = 2e-3
    crash_write_trials: int = 16

    def __post_init__(self) -> None:
        check_campaign_config(self, self.faults, FleetError, "fleet chaos")
        if self.horizon_slack_s < 0:
            raise FleetError("horizon_slack_s cannot be negative")


@dataclass
class ChaosTrial:
    """One randomized fault train replayed over one trace."""

    trial: int
    seed: int
    fault_counts: dict[str, int]
    submitted: int
    completed: int
    shed: int
    migrations: int
    quarantines: int
    recoveries: int
    still_quarantined: int
    conserved: bool
    byte_stable: bool | None  # None when the dual-run check was skipped
    slo_violation_rate: float
    shed_rate: float


@dataclass
class FleetChaosResult(CertifyResult):
    """Aggregate chaos outcome: per-trial records + invariant verdicts."""

    VIOLATIONS_HEADING: ClassVar[str] = "FLEET INVARIANT VIOLATIONS:"
    ALL_HELD: ClassVar[str] = "all fleet invariants held"

    policy_name: str
    nodes: int
    jobs: int
    trials: list[ChaosTrial] = field(default_factory=list)

    def header_payload(self) -> dict:
        """Header payload entries (see :class:`CertifyResult`)."""
        return {"policy": self.policy_name, "nodes": self.nodes,
                "jobs": self.jobs}

    def table(self) -> list[str]:
        """Report title, column header and one line per row."""
        lines = [f"fleet chaos  policy={self.policy_name}  "
                 f"nodes={self.nodes}  jobs={self.jobs}  seed={self.seed}",
                 f"{'trial':>5s} {'faults':>6s} {'done':>5s} {'shed':>5s} "
                 f"{'migr':>5s} {'quar':>5s} {'recov':>5s} "
                 f"{'conserved':>9s} {'stable':>6s}"]
        for trial in self.trials:
            stable = ("-" if trial.byte_stable is None
                      else ("yes" if trial.byte_stable else "NO"))
            lines.append(
                f"{trial.trial:5d} {sum(trial.fault_counts.values()):6d} "
                f"{trial.completed:5d} {trial.shed:5d} "
                f"{trial.migrations:5d} {trial.quarantines:5d} "
                f"{trial.recoveries:5d} "
                f"{'yes' if trial.conserved else 'NO':>9s} {stable:>6s}")
        return lines


# ---------------------------------------------------------------------------
# The chaos campaign
# ---------------------------------------------------------------------------

def _run_trial(arch: GPUArchConfig, factory, policy_name: str,
               config: FleetChaosConfig, trial_seed: int,
               workers: int | None, stats: CampaignStats) -> FleetResult:
    """One seeded replay: trace + fault train + scheduler."""
    trace_config = TraceConfig(trace=config.trace, jobs=config.jobs,
                               nodes=config.nodes, load=config.load,
                               seed=trial_seed)
    jobs = build_trace(arch, trace_config)
    horizon_s = max(job.arrival_s for job in jobs) + config.horizon_slack_s
    plan = NodeFaultPlan.build(config.faults.with_seed(trial_seed),
                               config.nodes, horizon_s)
    scheduler = ClusterScheduler(
        arch, factory, num_nodes=config.nodes, policy_name=policy_name,
        seed=trial_seed, thermal=ThermalConfig(), workers=workers,
        stats=stats, fault_plan=plan, migration=config.migration,
        admission=config.admission, health=config.health)
    return scheduler.run(jobs, trace_name=config.trace)


def _summarise(trial: int, trial_seed: int, fleet: FleetResult,
               byte_stable: bool | None) -> tuple[ChaosTrial, tuple]:
    """The trial's row plus the counter maps it contributes."""
    counters = fleet.counters
    plan = NodeFaultPlan(NodeFaultEvent(**event)
                         for event in fleet.fault_events)
    record = ChaosTrial(
        trial=trial, seed=trial_seed,
        fault_counts=plan.counts_by_kind(),
        submitted=fleet.jobs_submitted,
        completed=len(fleet.outcomes), shed=len(fleet.shed),
        migrations=fleet.migrations_total(),
        quarantines=counters.get("node_state_quarantined", 0),
        recoveries=counters.get("node_state_recovering", 0),
        still_quarantined=sum(1 for node in fleet.node_summaries
                              if node["health"] == QUARANTINED),
        conserved=fleet.conserved, byte_stable=byte_stable,
        slo_violation_rate=fleet.slo_violation_rate(),
        shed_rate=fleet.shed_rate())
    return record, (counters, fleet.policy_counters)


def _check_trial(result: FleetResult, record: ChaosTrial,
                 violations: list[str]) -> None:
    """Assert the per-trial fleet invariants, appending violations."""
    prefix = f"trial {record.trial}"
    if not record.conserved:
        violations.append(
            f"{prefix}: job conservation broken — submitted "
            f"{record.submitted} != completed {record.completed} + shed "
            f"{record.shed} (or duplicated ids)")
    if record.byte_stable is False:
        violations.append(
            f"{prefix}: export payload differs between serial and "
            f"parallel replay of the same seed")
    if record.recoveries < record.quarantines - record.still_quarantined:
        violations.append(
            f"{prefix}: {record.quarantines} quarantines but only "
            f"{record.recoveries} recoveries with "
            f"{record.still_quarantined} outages still open — a node "
            f"wedged in quarantine")
    for shed in result.shed:
        if shed.job_class == LATENCY and shed.reason == "unmeetable":
            violations.append(
                f"{prefix}: admission control shed latency-class job "
                f"{shed.job_id} — latency jobs must run and be "
                f"accounted as SLO violations instead")


def run_fleet_chaos(arch: GPUArchConfig, factory,
                    config: FleetChaosConfig | None = None, *,
                    policy_name: str = "policy",
                    workers: int | None = None,
                    store_root: str | Path | None = None,
                    stats: CampaignStats | None = None
                    ) -> FleetChaosResult:
    """Run the fleet-chaos campaign; returns per-trial records + verdicts.

    ``factory`` is a picklable zero-arg per-node policy factory (see
    :func:`repro.fleet.policy_factory`).  When ``store_root`` is given,
    the crash-write torture phase runs against an
    :class:`~repro.store.ArtifactStore` there using the first trial's
    export payload as the victim artifact.  The whole result is a pure
    function of ``(arch, factory, config)``.
    """
    config = config or FleetChaosConfig()
    stats = stats if stats is not None else CampaignStats()
    result = FleetChaosResult(policy_name=policy_name, nodes=config.nodes,
                              jobs=config.jobs, seed=config.seed)

    def replay(trial_seed, run_workers, run_stats, run_name):
        return _run_trial(arch, factory, policy_name, config, trial_seed,
                          run_workers, run_stats)

    first_payload = run_trials(result, "fleet-chaos", config, workers,
                               stats, replay, _summarise, _check_trial)
    if store_root is not None and config.crash_write_trials:
        certify_crash_writes(result, ArtifactStore(store_root),
                             "fleet-chaos-export",
                             first_payload or b"chaos",
                             config.crash_write_trials)
    return result
