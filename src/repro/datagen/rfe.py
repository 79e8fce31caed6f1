"""Recursive Feature Elimination (paper §IV-A, Table I).

The paper refines the 47 counters down to three indirect features (plus
the always-kept direct power feature) with RFE, scoring features by the
accuracy drop when their values are shuffled — i.e. permutation
importance inside a recursive elimination loop.  We reproduce exactly
that: each round trains a Decision-maker on the surviving features,
permutes one candidate column of the test split at a time, and
eliminates the least important quarter.

Scoring is batched: the ``columns × repeats`` permuted copies of the
test split are stacked into one ``(P, rows, features)`` tensor and
pushed through the Decision-maker with one ``np.matmul`` per layer (the
shared weight matrix broadcasts across the stack), instead of
``columns × repeats`` separate ``predict_class`` calls.  The batched
path consumes the *same* random stream in the same order as the
per-column reference :func:`_permutation_importance` —
``rng.permutation(n)`` draws exactly what ``rng.shuffle`` on a
length-``n`` column would — so the tests can check the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DatasetError
from ..gpu.counters import INDIRECT_FEATURE_NAMES
from ..nn.metrics import accuracy
from ..nn.mlp import MLP
from ..nn.trainer import TrainConfig, train_classifier
from ..parallel import CampaignStats
from .dataset import DVFSDataset

#: The direct (power) feature the paper always keeps: PPC.
DEFAULT_ALWAYS_KEEP = ("power_per_core",)

#: Hidden widths of the probe classifier each RFE round trains.
RFE_HIDDEN = (20, 20)

#: Cap on ``stack_members × rows`` per batched forward chunk, keeping
#: the activation stack inside cache-friendly territory on small hosts.
_ROW_BUDGET = 8192

#: Share of the remaining candidates each RFE round eliminates (at
#: least one).
DROP_FRACTION = 0.25


@dataclass
class RFERound:
    """One elimination round's record."""

    features: tuple[str, ...]
    test_accuracy: float


@dataclass
class RFEResult:
    """Outcome of a full RFE run."""

    selected: tuple[str, ...]
    always_keep: tuple[str, ...]
    rounds: list[RFERound] = field(default_factory=list)
    full_accuracy: float = 0.0
    selected_accuracy: float = 0.0

    @property
    def all_features(self) -> tuple[str, ...]:
        """Deployment feature set: always-keep + selected indirect."""
        return self.always_keep + self.selected

    @property
    def accuracy_drop_pct(self) -> float:
        """Accuracy lost by the refinement, in percentage points."""
        return (self.full_accuracy - self.selected_accuracy) * 100.0


def _permutation_importance(model: MLP, x_test: np.ndarray,
                            y_test: np.ndarray, column: int,
                            rng: np.random.Generator,
                            repeats: int = 3) -> float:
    """Mean accuracy drop when ``column`` of the test set is shuffled."""
    base = accuracy(model.predict_class(x_test), y_test)
    drops = []
    for _ in range(repeats):
        shuffled = x_test.copy()
        rng.shuffle(shuffled[:, column])
        drops.append(base - accuracy(model.predict_class(shuffled), y_test))
    return float(np.mean(drops))


class ImportanceWorkspace:
    """Reusable scratch arrays for repeated batched scoring calls.

    The stacked test copies and per-layer activation buffers dominate
    the batched path's fixed cost; a caller that scores repeatedly
    (the RFE round loop, benchmarks) passes one workspace so those
    allocations are paid once per shape instead of once per call.
    """

    def __init__(self) -> None:
        self._arrays: dict[object, np.ndarray] = {}

    def array(self, key: object, shape: tuple[int, ...],
              dtype: type = np.float64) -> np.ndarray:
        """An uninitialised array of ``shape``/``dtype``, reused by key."""
        array = self._arrays.get(key)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[key] = np.empty(shape, dtype=dtype)
        return array


def permutation_importances(model: MLP, x_test: np.ndarray,
                            y_test: np.ndarray, columns: list[int],
                            rng: np.random.Generator, repeats: int = 3,
                            base: float | None = None,
                            workspace: ImportanceWorkspace | None = None
                            ) -> np.ndarray:
    """Batched permutation importance for every column at once.

    Builds a ``(len(columns) × repeats, rows, features)`` stack in which
    each slice is the test split with one candidate column permuted,
    then scores the whole stack with one broadcast matmul per model
    layer.  Draws from ``rng`` in the exact order of the serial loop
    (columns outer, repeats inner), so the returned per-column mean
    drops equal :func:`_permutation_importance` called column by column
    with the same generator state.
    """
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.ndim != 2:
        raise DatasetError("x_test must be 2-D (rows, features)")
    rows, width = x_test.shape
    if rows == 0 or not columns:
        raise DatasetError("nothing to score")
    if any(not 0 <= c < width for c in columns):
        raise DatasetError("permutation column out of range")
    if base is None:
        base = accuracy(model.predict_class(x_test), y_test)
    workspace = workspace or ImportanceWorkspace()

    members = len(columns) * repeats
    stack = workspace.array("stack", (members, rows, width))
    stack[:] = x_test
    # Same stream as the serial shuffles: shuffling a fresh arange is
    # exactly Generator.permutation(n), so member i draws what the
    # serial loop's i-th rng.shuffle would, and column[idx] is the very
    # column that in-place shuffle would have produced.  The arange and
    # index buffers are reused across members, and each candidate
    # column is gathered once into contiguous memory up front.
    arange = workspace.array("arange", (rows,), dtype=np.intp)
    arange[:] = np.arange(rows)
    idx = workspace.array("idx", (rows,), dtype=np.intp)
    for index, column in enumerate(columns):
        contiguous = np.ascontiguousarray(x_test[:, column])
        for repeat in range(repeats):
            idx[:] = arange
            rng.shuffle(idx)
            stack[index * repeats + repeat, :, column] = contiguous[idx]

    weights = [layer._masked_weights() for layer in model.layers]
    biases = [layer.bias for layer in model.layers]
    chunk = max(1, min(members, _ROW_BUDGET // max(1, rows)))
    # Each chunk is scored as ONE flattened (chunk*rows, width) GEMM per
    # layer: at chunked sizes the activations stay cache-resident, and
    # a single large dgemm beats `chunk` tiny per-slice calls.  Row
    # values are unchanged by the flatten, so predictions are the same.
    buffers = [workspace.array(("layer", index), (chunk * rows, w.shape[1]))
               for index, w in enumerate(weights)]
    accuracies = workspace.array("accuracies", (members,))
    y_test = np.asarray(y_test)
    for start in range(0, members, chunk):
        stop = min(start + chunk, members)
        size = stop - start
        x = stack[start:stop].reshape(size * rows, width)
        for layer, w, b, buffer in zip(model.layers, weights, biases,
                                       buffers):
            out = buffer[:size * rows]
            np.matmul(x, w, out=out)
            out += b
            if layer.activation == "relu":
                np.maximum(out, 0.0, out=out)
            x = out
        predictions = np.argmax(x.reshape(size, rows, -1), axis=2)
        accuracies[start:stop] = (predictions == y_test).mean(axis=1)

    drops = base - accuracies
    return drops.reshape(len(columns), repeats).mean(axis=1)


class RFESelector:
    """Recursive feature elimination over the indirect counters."""

    def __init__(self, dataset: DVFSDataset, issue_width: float,
                 candidates: tuple[str, ...] = INDIRECT_FEATURE_NAMES,
                 target_count: int = 3,
                 train_config: TrainConfig | None = None,
                 seed: int = 0,
                 stats: CampaignStats | None = None) -> None:
        if target_count < 1:
            raise DatasetError("must select at least one feature")
        overlap = set(candidates) & set(DEFAULT_ALWAYS_KEEP)
        if overlap:
            raise DatasetError(f"features both candidate and kept: {overlap}")
        if len(candidates) < target_count:
            raise DatasetError("fewer candidates than target count")
        self.dataset = dataset
        self.issue_width = issue_width
        self.candidates = tuple(candidates)
        self.target_count = target_count
        self.train_config = train_config or TrainConfig(
            epochs=30, patience=6, learning_rate=3e-3, seed=seed)
        self.seed = seed
        self.stats = stats if stats is not None else CampaignStats()
        self._workspace = ImportanceWorkspace()

    def _train_and_score(self, features: tuple[str, ...], seed: int
                         ) -> tuple[MLP, float, "np.ndarray", "np.ndarray"]:
        names = DEFAULT_ALWAYS_KEEP + features
        prepared = self.dataset.prepare(names, self.issue_width, seed=self.seed)
        model = MLP([prepared.decision.x_train.shape[1], *RFE_HIDDEN,
                     prepared.num_levels], rng=np.random.default_rng(seed))
        history = train_classifier(model, prepared.decision.x_train,
                                   prepared.decision.y_train,
                                   self.train_config)
        self.stats.count("train_models")
        self.stats.count("train_epochs", history.epochs_run)
        acc = accuracy(model.predict_class(prepared.decision.x_test),
                       prepared.decision.y_test)
        return model, acc, prepared.decision.x_test, prepared.decision.y_test

    def _score_round(self, model: MLP, acc: float, x_test: np.ndarray,
                     y_test: np.ndarray, current: list[str],
                     rng: np.random.Generator) -> dict[str, float]:
        """Permutation importances for one round's surviving features.

        The unpermuted baseline is the round accuracy already in hand,
        so the clean forward is not re-run per column.
        """
        offset = len(DEFAULT_ALWAYS_KEEP)
        self.stats.count("rfe_columns_scored", len(current))
        scores = permutation_importances(
            model, x_test, y_test,
            [offset + position for position in range(len(current))],
            rng, base=acc, workspace=self._workspace)
        return {name: float(score) for name, score in zip(current, scores)}

    def run(self) -> RFEResult:
        """Execute the elimination loop; returns the full record."""
        current = list(self.candidates)
        result = RFEResult(selected=(), always_keep=DEFAULT_ALWAYS_KEEP)
        rng = np.random.default_rng(self.seed)
        round_index = 0
        with self.stats.stage("rfe", tasks=len(current)):
            while True:
                model, acc, x_test, y_test = self._train_and_score(
                    tuple(current), seed=self.seed + round_index)
                if round_index == 0:
                    result.full_accuracy = acc
                self.stats.count("rfe_rounds")
                importances = self._score_round(model, acc, x_test, y_test,
                                                current, rng)
                if len(current) <= self.target_count:
                    result.rounds.append(RFERound(
                        features=tuple(current), test_accuracy=acc))
                    break
                n_drop = max(1, int(len(current) * DROP_FRACTION))
                n_drop = min(n_drop, len(current) - self.target_count)
                ranked = sorted(current, key=lambda n: importances[n])
                eliminated = tuple(ranked[:n_drop])
                result.rounds.append(RFERound(
                    features=tuple(current), test_accuracy=acc))
                current = [n for n in current if n not in eliminated]
                round_index += 1

        result.selected = tuple(current)
        result.selected_accuracy = result.rounds[-1].test_accuracy
        return result
