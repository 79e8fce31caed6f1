"""Safe online Calibrator fine-tuning from served windows.

The paper's self-calibration loop adjusts the *working preset* online;
this module closes the bigger loop: the Calibrator network itself is
incrementally fine-tuned from live traffic.  Online updates are the
most dangerous write path in the system — a poisoned batch can turn
every prediction to garbage — so every update passes three gates
before it can serve:

1. **Shadow evaluation** — the candidate (a clone of the serving
   Calibrator, fine-tuned on the buffered windows) is scored against
   the incumbent on a held-out tail of recent samples; it is rejected
   unless its error is at least as good within :data:`TOLERANCE`.
2. **Finiteness verification** — the promoted pair must pass
   :meth:`~repro.core.combined.SSMDVFSModel.verify` (NaN/Inf weights
   are an immediate reject, which is how a poisoned update dies).
3. **Probation before blessing** — a promoted pair is ``put`` into the
   artifact store *unblessed*; only after :data:`PROBATION_WINDOWS`
   further observed windows without a drift alarm is it
   ``mark_good``-ed.  Until then the drift -> rollback machinery
   (PR 5) restores the previous last-known-good on any alarm.

Labels follow the SNIPPETS.md snippet 3 window idiom: the feature
window served at sequence ``n`` gets its regression target (the
throughput ratio) from the window observed at ``n + 1``.
``online_*`` counters expose the whole lifecycle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core.combined import PAIR_SCHEMA, SSMDVFSModel
from ..errors import TrainingError
from ..nn.trainer import TrainConfig, train_regressor
from ..store import ArtifactStore

#: Fraction of the buffered samples (the freshest) held out as the
#: shadow set a candidate is judged on.
HOLDOUT_FRACTION = 0.25
#: Fine-tuning step size of a candidate Calibrator.
LEARNING_RATE = 5e-4
#: Buffered samples between update attempts.
UPDATE_INTERVAL = 48
#: Relative shadow-error slack a candidate gets over the incumbent: it
#: may be promoted when marginally worse on the tiny shadow set, never
#: when clearly worse.
TOLERANCE = 0.05
#: Fine-tuning epochs of one candidate (also its early-stop patience).
EPOCHS = 12
#: Observed windows a promotion serves on probation before it is
#: marked good.
PROBATION_WINDOWS = 24
#: Bound of the sample buffer; the oldest samples go first.
MAX_BUFFER = 512


class OnlineCalibrator:
    """Gated incremental fine-tuning of the serving Calibrator.

    Owns the live :class:`~repro.core.combined.SSMDVFSModel`, a bounded
    sample buffer, and the promotion lifecycle against the artifact
    store.  The runtime feeds observed windows through :meth:`observe`
    and pumps :meth:`maybe_update` once per tick; on promotion the new
    pair becomes :attr:`model` (picked up by workers on their next
    rebuild) and starts its probation countdown.  ``model`` is the pair
    the store's ``last_known_good`` version holds.
    """

    def __init__(self, model: SSMDVFSModel, store: ArtifactStore,
                 artifact_name: str, *, seed: int = 0) -> None:
        self.model = model
        self.store = store
        self.artifact_name = artifact_name
        self.seed = int(seed)
        self.counters = Counter()
        self._features: list[np.ndarray] = []
        self._targets: list[float] = []
        self._poison_next = False
        self._since_attempt = 0
        self._updates = 0
        #: (version, windows remaining) of a promotion still on probation.
        self._probation: tuple[int, int] | None = None
        #: The pair of the store's ``last_known_good`` version.
        self._good_model = model

    # ------------------------------------------------------------------
    def poison_next_update(self) -> None:
        """Fault hook: corrupt the next candidate before its gates."""
        self._poison_next = True

    def observe(self, raw_features: np.ndarray, level: int,
                ratio: float) -> None:
        """Buffer one labelled window (features + level -> next ratio).

        ``raw_features`` is the unscaled extractor output for the
        served window; ``ratio`` is the next window's instruction count
        over this one's — the label only known one window later.
        """
        if not np.isfinite(ratio) or ratio < 0:
            self.counters["online_label_rejected"] += 1
            return
        row = np.concatenate([np.asarray(raw_features, dtype=np.float64),
                              [float(level)]])
        if not np.all(np.isfinite(row)):
            self.counters["online_label_rejected"] += 1
            return
        self._features.append(row)
        self._targets.append(float(ratio))
        self._since_attempt += 1
        overflow = len(self._features) - MAX_BUFFER
        if overflow > 0:
            del self._features[:overflow]
            del self._targets[:overflow]
        self.counters["online_samples"] += 1
        if self._probation is not None:
            version, remaining = self._probation
            remaining -= 1
            if remaining <= 0:
                self.store.mark_good(self.artifact_name, version)
                self._good_model = self.model
                self.counters["online_marked_good"] += 1
                self._probation = None
            else:
                self._probation = (version, remaining)

    def drift_alarmed(self) -> None:
        """Notify that the guard's drift layer alarmed: cancel probation.

        The rollback machinery is restoring the previous known-good
        pair; the on-probation promotion must never be blessed, and it
        stops being :attr:`model`, which the next candidate is
        fine-tuned from and shadow-scored against.  :attr:`model`
        returns to the pair the workers roll back to: the store's
        ``last_known_good``.
        """
        if self._probation is None:
            return
        self.counters["online_probation_aborted"] += 1
        self._probation = None
        self.model = self._good_model

    # ------------------------------------------------------------------
    def _shadow_error(self, model_pair: SSMDVFSModel, x: np.ndarray,
                      y: np.ndarray) -> float:
        scaled = model_pair.calibrator_scaler.transform(x)
        predictions = model_pair.calibrator_model.predict_scalar(scaled)
        if not np.all(np.isfinite(predictions)):
            return float("inf")
        return float(np.mean((predictions - y) ** 2))

    def maybe_update(self) -> str | None:
        """Attempt one gated update when the buffer warrants it.

        Returns ``"promoted"`` / ``"rejected"`` for an attempted
        update, None when the buffer is still filling.  Deterministic:
        the training seed derives from the base seed and the update
        ordinal only.
        """
        if (len(self._features) < UPDATE_INTERVAL
                or self._since_attempt < UPDATE_INTERVAL):
            return None
        self._since_attempt = 0
        self._updates += 1
        self.counters["online_updates_attempted"] += 1
        x = np.stack(self._features)
        y = np.asarray(self._targets, dtype=np.float64)
        n_holdout = max(2, int(len(x) * HOLDOUT_FRACTION))
        x_train, y_train = x[:-n_holdout], y[:-n_holdout]
        x_hold, y_hold = x[-n_holdout:], y[-n_holdout:]

        candidate = self.model.calibrator_model.clone()
        try:
            train_regressor(
                candidate,
                self.model.calibrator_scaler.transform(x_train), y_train,
                TrainConfig(epochs=EPOCHS,
                            learning_rate=LEARNING_RATE,
                            validation_fraction=0.0,
                            patience=EPOCHS,
                            seed=self.seed + self._updates))
        except TrainingError:
            self.counters["online_updates_rejected"] += 1
            return "rejected"
        if self._poison_next:
            # Injected poisoning: the fine-tuned weights are corrupted
            # after training, exactly where a bad batch or a bitflip
            # would land.  The gates below must catch it.
            self._poison_next = False
            self.counters["online_poison_injected"] += 1
            candidate.layers[0].weights[:] = np.nan

        pair = SSMDVFSModel(
            decision_model=self.model.decision_model,
            calibrator_model=candidate,
            feature_names=self.model.feature_names,
            issue_width=self.model.issue_width,
            num_levels=self.model.num_levels,
            decision_scaler=self.model.decision_scaler,
            calibrator_scaler=self.model.calibrator_scaler,
            metadata=dict(self.model.metadata,
                          online_update=self._updates))
        incumbent_err = self._shadow_error(self.model, x_hold, y_hold)
        candidate_err = self._shadow_error(pair, x_hold, y_hold)
        if (not pair.verify()
                or not np.isfinite(candidate_err)
                or candidate_err > incumbent_err
                * (1.0 + TOLERANCE) + 1e-12):
            self.counters["online_updates_rejected"] += 1
            return "rejected"
        version = self.store.put(self.artifact_name, pair.to_bytes(),
                                 schema=PAIR_SCHEMA)
        self.model = pair
        self._probation = (version, PROBATION_WINDOWS)
        self.counters["online_updates_promoted"] += 1
        return "promoted"
