"""Online drift detection and self-healing model rollback.

The Calibrator exists because offline models go stale at runtime; this
module closes the remaining loop by treating the predicted-vs-actual
instruction gap as a *trust* signal, not just a preset nudge.  Three
pieces:

* :class:`DriftMonitor` — an EWMA + one-sided
  CUSUM monitor over the controller's raw calibration gap and its
  realised preset-violation pressure.  Single-epoch noise washes out;
  a sustained shift accumulates in the CUSUM statistic and raises a
  drift alarm after a handful of epochs.
* :class:`RollbackManager` — given an :class:`~repro.store.ArtifactStore`
  and an artifact name, rebuilds a replacement controller from the
  registry's ``last_known_good`` Decision-maker/Calibrator pair (or
  any older version that still verifies), validating checksums *and*
  weight finiteness before trusting it.
* :class:`repro.core.guarded.GuardedController` consumes both: on a
  confirmed alarm it hot-swaps its wrapped policy to the recovered
  pair and re-enters probation, or degrades to the static-frequency
  fallback when nothing in the registry verifies.  ``drift_*`` and
  ``rollback_*`` counters surface the whole episode in ``--stats``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from ..errors import ArtifactCorrupt
from ..store import ArtifactStore


# Thresholds of the EWMA/CUSUM drift monitor.  CUSUM_SLACK is the
# per-update gap magnitude a healthy Calibrator is allowed "for free"
# (its honest noise floor); only the excess ``|gap| - CUSUM_SLACK``
# accumulates.  With these values a fully saturated gap confirms drift
# after ~4 consecutive epochs and a moderate one after ~10.
#: Smoothing weight of the calibration-gap EWMA (per update).
EWMA_ALPHA = 0.15
#: Gap magnitude per update that never accumulates (normalised gap).
CUSUM_SLACK = 0.15
#: Accumulated excess gap that raises the alarm (normalised gap).
CUSUM_LIMIT = 3.0
#: Smoothing weight of the violation-pressure EWMA (per update).
VIOLATION_ALPHA = 0.05
#: Violation pressure (fraction of recent epochs) that raises the alarm.
VIOLATION_THRESHOLD = 0.6
#: Updates during which no alarm fires, while the first comparisons
#: trickle in.
WARMUP_UPDATES = 8


class DriftMonitor:
    """EWMA + CUSUM over the calibration gap and violation pressure.

    ``update`` consumes one epoch's signals and returns True when the
    accumulated evidence crosses a threshold — the *alarm*.  The
    monitor stays latched (``drifted``) until :meth:`reset`, which the
    guard calls after a rollback so the restored pair starts from a
    clean slate.
    """

    def __init__(self) -> None:
        self.counters = Counter()
        self.reset()

    def reset(self) -> None:
        """Clear all accumulated state (post-rollback clean slate)."""
        self.ewma_gap = 0.0
        self.cusum = 0.0
        self.violation_pressure = 0.0
        self.updates = 0
        self.drifted = False

    def update(self, gap: float | None, violation: bool = False) -> bool:
        """Fold one epoch's signals in; True when this update alarms.

        ``gap`` is the controller's raw normalised calibration gap
        (None when no comparison happened this epoch — e.g. all
        clusters drained — which skips the gap statistics but still
        tracks violation pressure).
        """
        self.updates += 1
        self.counters["drift_updates"] += 1
        if gap is not None:
            if not math.isfinite(gap):
                self.counters["drift_nonfinite_gaps"] += 1
                # A poisoned model counts as a fully saturated gap.
                magnitude = 1.0
            else:
                magnitude = min(abs(gap), 1.0)
            self.ewma_gap += EWMA_ALPHA * (magnitude - self.ewma_gap)
            self.cusum = max(0.0, self.cusum + magnitude - CUSUM_SLACK)
        self.violation_pressure += VIOLATION_ALPHA * (
            float(bool(violation)) - self.violation_pressure)
        if self.updates <= WARMUP_UPDATES or self.drifted:
            return False
        if (self.cusum > CUSUM_LIMIT
                or self.violation_pressure > VIOLATION_THRESHOLD):
            self.drifted = True
            self.counters["drift_alarms"] += 1
            return True
        return False


class RollbackManager:
    """Recover a trustworthy controller from the artifact registry.

    ``build`` maps a restored :class:`~repro.core.combined.SSMDVFSModel`
    to a fresh policy instance (typically
    ``lambda model: SSMDVFSController(model, preset)``).  Recovery
    walks the registry starting at ``last_known_good`` and then down
    through older versions, skipping anything whose checksum or weight
    finiteness fails; it returns None when nothing verifies, which the
    guard translates into a permanent static-frequency fallback.
    """

    def __init__(self, store: ArtifactStore, name: str,
                 build: Callable[["object"], "object"]) -> None:
        self.store = store
        self.name = name
        self.build = build
        self.counters = Counter()

    def _candidate_versions(self) -> list[int]:
        versions = [entry.version for entry in self.store.versions(self.name)]
        good = self.store.last_known_good(self.name)
        ordered: list[int] = []
        if good in versions:
            ordered.append(good)
        for version in sorted(versions, reverse=True):
            if version not in ordered:
                ordered.append(version)
        return ordered

    def recover(self):
        """A fresh policy built from the best verifying pair, or None."""
        from .combined import SSMDVFSModel
        self.counters["rollback_attempts"] += 1
        for version in self._candidate_versions():
            try:
                blob = self.store.get(self.name, version, fallback=False)
                model = SSMDVFSModel.from_bytes(blob)
            except ArtifactCorrupt:
                self.counters["rollback_corrupt_versions"] += 1
                continue
            if not model.verify():
                self.counters["rollback_unverified_versions"] += 1
                continue
            self.counters["rollback_successes"] += 1
            self.counters["rollback_restored_version"] = version
            return self.build(model)
        self.counters["rollback_exhausted"] += 1
        return None
