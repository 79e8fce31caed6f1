"""The certification skeleton shared by the soak and the chaos gates.

The soak (:mod:`.soak`), fleet-chaos (:mod:`.fleet_chaos`) and
serve-chaos (:mod:`.serve_chaos`) harnesses certify different layers
but end the same way: a seeded :class:`CertifyResult` with per-run rows,
summed counters, a crash-write torture tally and invariant violations.
The two chaos harnesses also share the trial loop :func:`run_trials`;
the soak does not (it runs kernels and has no dual replay).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, ClassVar

import numpy as np

from ..faults import derive_fault_seed
from ..parallel import CampaignStats, resolve_workers
from ..store import ArtifactStore, SimulatedCrash


@dataclass(kw_only=True)
class CertifyResult:
    """Seed, counter totals, torture tally and invariant verdicts.

    Subclasses add header fields and a list of dataclass rows named by
    :attr:`ROWS`, and implement :meth:`header_payload` and :meth:`table`.
    """

    #: Attribute holding the per-run rows; also their payload key.
    ROWS: ClassVar[str] = "trials"
    #: First line of the violation block in :meth:`render`.
    VIOLATIONS_HEADING: ClassVar[str] = "INVARIANT VIOLATIONS:"
    #: Last line of :meth:`render` when every invariant held.
    ALL_HELD: ClassVar[str]

    seed: int
    counters: Counter = field(default_factory=Counter)
    crash_trials: int = 0
    crash_torn_reads: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def header_payload(self) -> dict:
        """Harness-specific payload entries (everything but the seed)."""
        raise NotImplementedError

    def table(self) -> list[str]:
        """Harness-specific report lines: title, column header, rows."""
        raise NotImplementedError

    def to_payload(self) -> dict:
        """JSON-ready dict (no wall-clock: seeded runs export bit-equal)."""
        return {
            **self.header_payload(),
            "seed": self.seed,
            "passed": self.passed,
            self.ROWS: [asdict(row) for row in getattr(self, self.ROWS)],
            "counters": {name: int(amount)
                         for name, amount in sorted(self.counters.items())},
            "crash_trials": self.crash_trials,
            "crash_torn_reads": self.crash_torn_reads,
            "violations": list(self.violations),
        }

    def render(self) -> str:
        """Human-readable report: the table, then the verdict footer."""
        lines = self.table()
        lines.append(f"crash-write torture: {self.crash_trials} kills, "
                     f"{self.crash_torn_reads} torn reads")
        if self.violations:
            lines.append(self.VIOLATIONS_HEADING)
            lines.extend(f"  - {violation}" for violation in self.violations)
        else:
            lines.append(self.ALL_HELD)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Crash-write torture
# ---------------------------------------------------------------------------

def crash_write_torture(store: ArtifactStore, name: str, payload: bytes,
                        trials: int, seed: int = 0) -> tuple[int, int]:
    """Kill ``put`` at sampled offsets; returns (kills, torn_reads).

    After every simulated kill the artifact must read back as the
    last committed payload — never a prefix of the aborted write — and
    a follow-up clean ``put`` must succeed (leftover temp files cannot
    wedge the store).  The byte-exhaustive variant lives in the test
    suite; the harnesses sample ``trials`` offsets across the encoded
    length so long payloads stay cheap.
    """
    if trials <= 0:
        return 0, 0
    baseline = store.put(name, payload, schema="soak-torture/v1",
                         mark_good=False)
    expected = store.get(name, baseline, fallback=False)
    rng = np.random.default_rng(seed)
    # Cover both boundaries (0 bytes written; written-but-not-renamed)
    # plus random interior offsets.
    offsets = {0, len(payload) + 1}
    while len(offsets) < trials:
        offsets.add(int(rng.integers(0, len(payload) + 2)))
    torn = 0
    for offset in sorted(offsets):
        try:
            store.put(name, payload, schema="soak-torture/v1",
                      crash_after=offset)
        except SimulatedCrash:
            pass
        observed = store.get(name, fallback=True)
        if observed != expected:
            torn += 1
    # The store must still accept clean writes after every abort.
    final = store.put(name, payload, schema="soak-torture/v1")
    if store.get(name, final, fallback=False) != expected:
        torn += 1
    return len(offsets) + 1, torn


def certify_crash_writes(result: CertifyResult, store: ArtifactStore,
                         name: str, payload: bytes, trials: int) -> None:
    """Run the torture seeded by ``result.seed``; record torn reads."""
    result.crash_trials, result.crash_torn_reads = crash_write_torture(
        store, name, payload, trials, seed=result.seed)
    if result.crash_torn_reads:
        result.violations.append(
            f"crash-write torture observed {result.crash_torn_reads} "
            f"torn reads in {result.crash_trials} kills")


# ---------------------------------------------------------------------------
# The chaos trial loop
# ---------------------------------------------------------------------------

def check_campaign_config(config, faults, error: type[Exception],
                          name: str) -> None:
    """Raise ``error`` unless a chaos config (and its ``faults``) can
    certify anything."""
    if config.trials < 1:
        raise error(f"{name} needs at least one trial")
    if not 0 <= config.determinism_trials <= config.trials:
        raise error("determinism_trials must be within [0, trials]")
    if config.crash_write_trials < 0:
        raise error("crash_write_trials cannot be negative")
    if not faults.any_active:
        raise error(f"{name} without any active fault rate tests nothing; "
                    f"enable at least one")


def _canonical(run) -> str:
    return json.dumps(run.to_payload(), sort_keys=True)


def run_trials(result: CertifyResult, name: str, config,
               workers: int | None, stats: CampaignStats,
               replay: Callable, summarise: Callable,
               check: Callable) -> bytes | None:
    """Run ``config.trials`` seeded trials into ``result.trials``.

    Trial ``i`` runs ``replay(derive_fault_seed(result.seed, name, i),
    workers, stats, "trial00i")``.  The first ``determinism_trials``
    replay again as ``"trial00i-replay"`` at a different resolved
    worker count (2 when ``workers`` resolves to 1, else 1); whether the
    sorted-key payloads match is ``byte_stable``.  ``summarise(trial,
    seed, run, byte_stable)`` returns the row and the counter maps to
    merge, and ``check(run, row, violations)`` appends violations.
    Returns the first trial's export payload for the torture phase.
    """
    replay_workers = 2 if resolve_workers(workers) == 1 else 1
    trial_counter = f"{name.replace('-', '_')}_trials"
    first_payload: bytes | None = None
    for trial in range(config.trials):
        seed = derive_fault_seed(result.seed, name, trial)
        run_name = f"trial{trial:03d}"
        run = replay(seed, workers, stats, run_name)
        byte_stable: bool | None = None
        if trial < config.determinism_trials:
            again = replay(seed, replay_workers, CampaignStats(),
                           f"{run_name}-replay")
            byte_stable = _canonical(again) == _canonical(run)
        if first_payload is None:
            first_payload = json.dumps(run.to_payload(), indent=2,
                                       sort_keys=True).encode()
        row, counters = summarise(trial, seed, run, byte_stable)
        result.trials.append(row)
        for mapping in counters:
            result.counters.update(mapping)
        result.counters[trial_counter] += 1
        check(run, row, result.violations)
    return first_payload
