"""Per-GPU node state, health FSM, and least-contended placement.

The tracker maintains what the dispatcher knows about every simulated
GPU: when it frees up (contention), how much work and energy it has
absorbed (load), the mean operating level its controller last ran at
(frequency state), a first-order thermal proxy — and, since the fleet
resilience layer, a per-node **health FSM**:

``HEALTHY -> DEGRADED -> QUARANTINED -> RECOVERING -> HEALTHY``

* ``HEALTHY`` — full placement priority.
* ``DEGRADED`` — still placeable but deprioritized; entered on thermal
  runaway, a sensor-corruption storm (the guard-trip signal), or a
  streak of deadline misses.
* ``QUARANTINED`` — drained from placement entirely; entered on a node
  crash, a detected hang (heartbeat loss), or a guard-trip signal
  arriving while already degraded.  Only a timed recovery event ends a
  quarantine, so the state machine can never wedge on overload alone.
* ``RECOVERING`` — placeable on probation after the outage ends; a few
  clean completions re-admit the node to ``HEALTHY``, while a deadline
  miss demotes it to ``DEGRADED``.

Placement picks the **least-contended placeable** node: healthiest
state first, then smallest backlog, then the coolest and least-loaded
node, with the node id as the final deterministic tie-break — so an
idle fleet round-robins by temperature instead of piling every job
onto node 0, and a quarantined node never receives work.  Every state
transition increments a ``node_state_*`` counter for ``--stats`` and
the fleet JSON export.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from ..errors import FleetError

#: Ambient temperature of the thermal proxy (deg C).
AMBIENT_C = 35.0
#: Temperature rise of the thermal proxy per joule dissipated (deg C / J).
HEAT_PER_JOULE = 40.0

#: Health FSM states, healthiest first (placement priority order).
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"

#: Placement priority per health state (lower places first);
#: ``QUARANTINED`` is absent because quarantined nodes are drained.
_PLACEMENT_RANK = {HEALTHY: 0, RECOVERING: 1, DEGRADED: 2}

#: Counter prefixes of per-node policy observability worth exporting
#: at fleet scope (guard trips, drift alarms, rollbacks, injected
#: faults, calibration anomalies).
POLICY_COUNTER_PREFIXES = ("guard_", "drift_", "rollback_", "fault_",
                           "calibration_")


def resilience_counters(counters) -> Counter:
    """The :data:`POLICY_COUNTER_PREFIXES` part of a job's policy counters.

    The fleet keeps only these, so node summaries stay compact while
    per-node guard trips remain visible at fleet scope.
    """
    return Counter({name: int(amount) for name, amount in counters.items()
                    if name.startswith(POLICY_COUNTER_PREFIXES)})


#: Consecutive deadline misses that demote a healthy or recovering
#: node to ``DEGRADED``.
MISS_THRESHOLD = 3
#: Consecutive on-deadline completions that heal a degraded node once
#: no degradation window (storm, thermal runaway) is still active.
CLEAN_STREAK = 2
#: Clean completions that re-admit a recovering node to ``HEALTHY``.
PROBATION_JOBS = 2


@dataclass
class NodeState:
    """Dispatcher-visible state of one simulated GPU."""

    node_id: int
    free_at_s: float = 0.0
    jobs_done: int = 0
    busy_s: float = 0.0
    energy_j: float = 0.0
    temperature_c: float = AMBIENT_C
    peak_temperature_c: float = AMBIENT_C
    last_level_mean: float = 0.0
    last_update_s: float = 0.0
    #: Health FSM state (see module docstring).
    health: str = HEALTHY
    #: End of the current quarantine outage (meaningful while
    #: ``health == QUARANTINED``).
    quarantined_until: float = 0.0
    #: Progress stopped at this time (an undetected hang), or ``None``.
    hung_since: float | None = None
    #: End of the active sensor-corruption storm window (if any).
    storm_until: float = 0.0
    #: Service stretch applied to jobs dispatched during the storm.
    storm_slowdown: float = 1.0
    #: End of the active thermal-runaway degradation window (if any).
    hot_until: float = 0.0
    #: Jobs preempted off this node (crash/hang migrations).
    preemptions: int = 0
    #: Consecutive deadline misses / clean completions (FSM signals).
    miss_streak: int = 0
    clean_completions: int = 0
    #: Aggregated ``guard_*``/``drift_*``/... counters of the policies
    #: that completed jobs on this node.
    policy_counters: Counter = field(default_factory=Counter)

    def backlog_s(self, now_s: float) -> float:
        """Seconds of already-committed work beyond ``now_s``."""
        return max(0.0, self.free_at_s - now_s)

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction of the run horizon."""
        return self.busy_s / horizon_s if horizon_s > 0 else 0.0

    @property
    def placeable(self) -> bool:
        """True when the dispatcher may place new work here."""
        return self.health != QUARANTINED

    def to_payload(self) -> dict:
        """JSON-ready summary of this node."""
        return {
            "node_id": self.node_id,
            "jobs_done": self.jobs_done,
            "busy_s": self.busy_s,
            "energy_j": self.energy_j,
            "peak_temperature_c": self.peak_temperature_c,
            "last_level_mean": self.last_level_mean,
            "health": self.health,
            "quarantined_until": self.quarantined_until,
            "preemptions": self.preemptions,
            "policy_counters": dict(sorted(self.policy_counters.items())),
        }


@dataclass
class ThermalConfig:
    """First-order RC thermal proxy: heat per joule, exponential cool-down."""

    ambient_c: float = AMBIENT_C
    #: Cool-down time constant (seconds of simulated fleet time).
    tau_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.tau_s <= 0:
            raise FleetError("thermal proxy needs tau_s > 0")


class NodeTracker:
    """Book-keeping, health FSM and placement over the fleet's GPUs."""

    def __init__(self, num_nodes: int,
                 thermal: ThermalConfig | None = None) -> None:
        if num_nodes < 1:
            raise FleetError("a fleet needs at least one node")
        self.thermal = thermal or ThermalConfig()
        self.nodes = [NodeState(node_id=i,
                                temperature_c=self.thermal.ambient_c,
                                peak_temperature_c=self.thermal.ambient_c)
                      for i in range(num_nodes)]
        #: ``node_state_*`` transition counters (fleet observability).
        self.counters = Counter()

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    def _cool(self, node: NodeState, now_s: float) -> None:
        """Decay the node's temperature toward ambient up to ``now_s``."""
        elapsed = max(0.0, now_s - node.last_update_s)
        if elapsed > 0:
            node.temperature_c = (
                self.thermal.ambient_c
                + (node.temperature_c - self.thermal.ambient_c)
                * math.exp(-elapsed / self.thermal.tau_s))
            node.last_update_s = now_s

    def contention_key(self, node: NodeState,
                       now_s: float) -> tuple[int, float, float, float, int]:
        """Placement sort key: health, backlog, heat, load, then id."""
        return (_PLACEMENT_RANK.get(node.health, len(_PLACEMENT_RANK)),
                node.backlog_s(now_s), node.temperature_c, node.busy_s,
                node.node_id)

    def placeable_nodes(self) -> list[NodeState]:
        """Nodes the dispatcher may still place work on (not drained)."""
        return [n for n in self.nodes if n.placeable]

    def least_contended(self, now_s: float, *,
                        idle_only: bool = False) -> NodeState:
        """The placeable node the dispatcher should use next.

        With ``idle_only`` the choice is restricted to nodes with no
        committed work beyond ``now_s`` — the dispatcher's mode, so a
        busy healthy node can never out-rank an idle recovering one and
        jobs never stack behind an in-flight assignment.
        """
        candidates = (self.idle_nodes(now_s) if idle_only
                      else self.placeable_nodes())
        if not candidates:
            raise FleetError("every node is quarantined; nothing is "
                             "placeable")
        for node in candidates:
            self._cool(node, now_s)
        return min(candidates, key=lambda n: self.contention_key(n, now_s))

    def idle_nodes(self, now_s: float) -> list[NodeState]:
        """Placeable nodes with no committed work beyond ``now_s``."""
        return [n for n in self.placeable_nodes()
                if n.free_at_s <= now_s + 1e-15]

    # ------------------------------------------------------------------
    # Health FSM
    # ------------------------------------------------------------------
    def _transition(self, node: NodeState, state: str) -> None:
        if node.health == state:
            return
        node.health = state
        node.miss_streak = 0
        node.clean_completions = 0
        self.counters[f"node_state_{state}"] += 1

    def quarantine(self, node: NodeState, now_s: float, until_s: float,
                   reason: str) -> None:
        """Drain a node from placement until its outage ends.

        A quarantine extends (never shortens) any outage already in
        progress; the node's committed-work horizon is pushed to the
        outage end so its backlog reflects the downtime.
        """
        if until_s <= now_s:
            raise FleetError("a quarantine must end after it starts")
        self._cool(node, now_s)
        node.quarantined_until = max(node.quarantined_until, until_s)
        node.free_at_s = max(node.free_at_s, node.quarantined_until)
        node.hung_since = None
        self.counters[f"node_quarantine_{reason}"] += 1
        self._transition(node, QUARANTINED)

    def degrade(self, node: NodeState, now_s: float, reason: str) -> None:
        """Guard-trip / thermal / miss-streak signal: deprioritize.

        A degradation signal on an already-degraded node escalates to
        quarantine only when the caller quarantines explicitly; here it
        just refreshes the state.  Quarantined nodes ignore the signal
        (the outage dominates).
        """
        if node.health == QUARANTINED:
            return
        self._cool(node, now_s)
        self.counters[f"node_degrade_{reason}"] += 1
        self._transition(node, DEGRADED)

    def end_outage(self, node: NodeState, now_s: float) -> bool:
        """Timed recovery: move a quarantined node onto probation.

        Returns True when the node actually left quarantine — False if
        a later fault extended the outage past ``now_s`` (the caller's
        recovery event is then stale and a newer one is pending).
        """
        if node.health != QUARANTINED:
            return False
        if now_s + 1e-15 < node.quarantined_until:
            return False
        node.free_at_s = max(node.free_at_s, now_s)
        self._transition(node, RECOVERING)
        return True

    def clear_degradation(self, node: NodeState, now_s: float) -> bool:
        """Timed recovery of a degradation window (storm / thermal).

        Heals ``DEGRADED -> HEALTHY`` once no degradation window is
        still active.  Quarantined and recovering nodes are left to
        their own exits.
        """
        if node.health != DEGRADED:
            return False
        if now_s + 1e-15 < max(node.storm_until, node.hot_until):
            return False
        self._transition(node, HEALTHY)
        return True

    def note_deadline_miss(self, node: NodeState) -> None:
        """Deadline-miss signal: a streak demotes the node."""
        node.clean_completions = 0
        node.miss_streak += 1
        if (node.health in (HEALTHY, RECOVERING)
                and node.miss_streak >= MISS_THRESHOLD):
            self.counters["node_degrade_deadline_misses"] += 1
            self._transition(node, DEGRADED)

    def note_clean_completion(self, node: NodeState,
                              now_s: float) -> None:
        """On-deadline completion: streaks heal probation/degradation."""
        node.miss_streak = 0
        node.clean_completions += 1
        if (node.health == RECOVERING
                and node.clean_completions >= PROBATION_JOBS):
            self.counters["node_readmissions"] += 1
            self._transition(node, HEALTHY)
        elif (node.health == DEGRADED
                and node.clean_completions >= CLEAN_STREAK
                and now_s + 1e-15 >= max(node.storm_until, node.hot_until)):
            self._transition(node, HEALTHY)

    # ------------------------------------------------------------------
    def assign(self, node: NodeState, start_s: float,
               finish_s: float) -> None:
        """Commit a job to a node for the ``[start_s, finish_s)`` window."""
        if finish_s < start_s:
            raise FleetError("job cannot finish before it starts")
        if not node.placeable:
            raise FleetError(
                f"node {node.node_id} is quarantined until "
                f"{node.quarantined_until:.6g}s; it cannot accept work")
        if start_s < node.free_at_s - 1e-15:
            raise FleetError(
                f"node {node.node_id} is busy until {node.free_at_s:.6g}s; "
                f"cannot start a job at {start_s:.6g}s")
        node.free_at_s = finish_s

    def complete(self, node: NodeState, finish_s: float, service_s: float,
                 energy_j: float, mean_level: float) -> None:
        """Fold a finished job's measurements into the node state."""
        self._cool(node, finish_s)
        node.jobs_done += 1
        node.busy_s += service_s
        node.energy_j += energy_j
        node.last_level_mean = mean_level
        node.temperature_c += HEAT_PER_JOULE * energy_j
        node.peak_temperature_c = max(node.peak_temperature_c,
                                      node.temperature_c)

    def absorb_partial(self, node: NodeState, now_s: float, busy_s: float,
                       energy_j: float) -> None:
        """Fold a *preempted* job segment's wall time and energy in.

        The work executed before the preemption (including the part
        that will be lost to the last checkpoint) still occupied and
        heated this node, even though the job completes elsewhere.
        """
        self._cool(node, now_s)
        node.busy_s += busy_s
        node.energy_j += energy_j
        node.preemptions += 1
        node.temperature_c += HEAT_PER_JOULE * energy_j
        node.peak_temperature_c = max(node.peak_temperature_c,
                                      node.temperature_c)

    def thermal_runaway(self, node: NodeState, now_s: float,
                        spike_c: float, until_s: float) -> None:
        """Inject a thermal-runaway event: spike and degrade the node."""
        self._cool(node, now_s)
        node.temperature_c += spike_c
        node.peak_temperature_c = max(node.peak_temperature_c,
                                      node.temperature_c)
        node.hot_until = max(node.hot_until, until_s)
        self.degrade(node, now_s, "thermal")

    def to_payload(self) -> list[dict]:
        """JSON-ready per-node summaries, ordered by node id."""
        return [node.to_payload() for node in self.nodes]
