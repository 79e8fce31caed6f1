"""Layer-wise compression search and pruning sweeps (paper §IV, Fig. 3).

The paper compresses the combined network two ways and plots both
frontiers in FLOPs-vs-quality space:

* **Layer-wise compression** (§IV-B): retrain from scratch at smaller
  (layers x width) configurations; pick the smallest architecture
  before the accuracy knee (5+4 layers of 20 -> 3+2 layers of 12).
* **Pruning** (§IV-C): magnitude pruning (``x1``) followed by
  neuron-level pruning (``x2``) with fine-tuning, which traces a finer,
  dominant frontier (the paper lands on ``(0.6, 0.9)``).

Quality is Decision-maker accuracy and Calibrator MAPE, evaluated on a
held-out test split.

Both sweeps train their grid points in order, each from its own seed.
Every model here is trained by :func:`repro.nn.trainer.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressionError
from .flops import model_flops
from .metrics import accuracy, mape
from .mlp import MLP
from .prune import prune_model
from .trainer import (TrainConfig, TrainHistory, train_classifier,
                      train_regressor)


@dataclass(frozen=True)
class SplitData:
    """Train/test split for one head."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != np.asarray(self.y_train).shape[0]:
            raise CompressionError("train rows mismatch")
        if self.x_test.shape[0] != np.asarray(self.y_test).shape[0]:
            raise CompressionError("test rows mismatch")
        if self.x_train.shape[0] == 0 or self.x_test.shape[0] == 0:
            raise CompressionError("empty split")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Hidden-layer widths for the Decision-maker / Calibrator pair."""

    decision_hidden: tuple[int, ...]
    calibrator_hidden: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.decision_hidden or not self.calibrator_hidden:
            raise CompressionError("both heads need at least one hidden layer")
        if any(w <= 0 for w in self.decision_hidden + self.calibrator_hidden):
            raise CompressionError("hidden widths must be positive")

    @property
    def label(self) -> str:
        """Readable description, e.g. ``D5x20+C4x20``."""
        d = "x".join(str(w) for w in self.decision_hidden)
        c = "x".join(str(w) for w in self.calibrator_hidden)
        return f"D[{d}]+C[{c}]"


#: The paper's uncompressed architecture: 5 decision layers + 4
#: calibrator layers, 20 neurons each (§III-D).
PAPER_BASE_SPEC = ArchitectureSpec((20,) * 5, (20,) * 4)

#: The paper's layer-wise compressed architecture: 3 + 2 layers of 12
#: neurons (§IV-B).
PAPER_COMPRESSED_SPEC = ArchitectureSpec((12,) * 3, (12,) * 2)

#: The paper's final pruning parameters (§IV-C).
PAPER_PRUNE_PARAMS = (0.6, 0.9)


@dataclass(frozen=True)
class CompressionPoint:
    """One point on a FLOPs-vs-quality frontier."""

    label: str
    method: str  # "layerwise" or "pruning"
    flops: int
    accuracy_pct: float
    mape_pct: float
    decision_sizes: tuple[int, ...]
    calibrator_sizes: tuple[int, ...]
    sparsity: float = 0.0


@dataclass
class TrainedPair:
    """A trained Decision-maker / Calibrator model pair."""

    decision: MLP
    calibrator: MLP
    accuracy_pct: float
    mape_pct: float
    decision_history: TrainHistory | None = None
    calibrator_history: TrainHistory | None = None

    @property
    def flops_dense(self) -> int:
        """Dense FLOPs per decision epoch (both heads)."""
        return model_flops(self.decision) + model_flops(self.calibrator)

    @property
    def flops_sparse(self) -> int:
        """Sparse FLOPs per decision epoch (both heads)."""
        return (model_flops(self.decision, sparse=True)
                + model_flops(self.calibrator, sparse=True))

    @property
    def epochs_run(self) -> int:
        """Training epochs over both heads (0 when histories absent)."""
        return sum(h.epochs_run for h in
                   (self.decision_history, self.calibrator_history) if h)


def evaluate_pair(decision: MLP, calibrator: MLP, decision_data: SplitData,
                  calibrator_data: SplitData) -> tuple[float, float]:
    """Test-set accuracy (%) and MAPE (%) of a model pair."""
    acc = accuracy(decision.predict_class(decision_data.x_test),
                   decision_data.y_test) * 100.0
    err = mape(calibrator.predict_scalar(calibrator_data.x_test),
               calibrator_data.y_test)
    return acc, err


def train_pair(spec: ArchitectureSpec, decision_data: SplitData,
               calibrator_data: SplitData, num_levels: int,
               config: TrainConfig | None = None,
               seed: int = 0) -> TrainedPair:
    """Train a fresh Decision-maker / Calibrator pair at ``spec``."""
    config = config or TrainConfig()
    rng = np.random.default_rng(seed)
    decision = MLP([decision_data.x_train.shape[1], *spec.decision_hidden,
                    num_levels], rng=rng)
    calibrator = MLP([calibrator_data.x_train.shape[1],
                      *spec.calibrator_hidden, 1], rng=rng)
    decision_history = train_classifier(decision, decision_data.x_train,
                                        decision_data.y_train, config)
    calibrator_history = train_regressor(calibrator, calibrator_data.x_train,
                                         calibrator_data.y_train, config)
    acc, err = evaluate_pair(decision, calibrator, decision_data,
                             calibrator_data)
    return TrainedPair(decision, calibrator, acc, err,
                       decision_history, calibrator_history)


def default_layerwise_grid() -> list[ArchitectureSpec]:
    """The (layers x width) grid swept for Fig. 3's layer-wise curve."""
    specs = [PAPER_BASE_SPEC]
    for depth_pair in ((4, 3), (3, 2), (2, 2), (2, 1)):
        for width in (20, 16, 12, 8, 4):
            specs.append(ArchitectureSpec((width,) * depth_pair[0],
                                          (width,) * depth_pair[1]))
    return specs


def layer_wise_sweep(decision_data: SplitData, calibrator_data: SplitData,
                     num_levels: int,
                     specs: list[ArchitectureSpec] | None = None,
                     config: TrainConfig | None = None,
                     seed: int = 0) -> list[CompressionPoint]:
    """Train every architecture in the grid -> Fig. 3 layer-wise curve.

    Grid point ``index`` trains with seed ``seed + index``.
    """
    specs = specs or default_layerwise_grid()
    config = config or TrainConfig()
    points = []
    for index, spec in enumerate(specs):
        pair = train_pair(spec, decision_data, calibrator_data, num_levels,
                          config, seed=seed + index)
        points.append(CompressionPoint(
            label=spec.label,
            method="layerwise",
            flops=pair.flops_dense,
            accuracy_pct=pair.accuracy_pct,
            mape_pct=pair.mape_pct,
            decision_sizes=tuple(pair.decision.layer_sizes),
            calibrator_sizes=tuple(pair.calibrator.layer_sizes),
        ))
    return points


def default_pruning_grid() -> list[tuple[float, float]]:
    """The (x1, x2) grid swept for Fig. 3's pruning curve."""
    grid = []
    for x1 in (0.2, 0.4, 0.6, 0.75, 0.85):
        for x2 in (0.7, 0.9):
            grid.append((x1, x2))
    return grid


def prune_and_finetune(pair: TrainedPair, x1: float, x2: float,
                       decision_data: SplitData, calibrator_data: SplitData,
                       finetune_config: TrainConfig | None = None) -> TrainedPair:
    """Prune a copy of ``pair`` with (x1, x2) and fine-tune it."""
    finetune_config = finetune_config or TrainConfig(
        epochs=40, patience=10, learning_rate=5e-4)
    decision = pair.decision.clone()
    calibrator = pair.calibrator.clone()
    prune_model(decision, x1, x2)
    prune_model(calibrator, x1, x2)
    decision_history = train_classifier(decision, decision_data.x_train,
                                        decision_data.y_train,
                                        finetune_config)
    calibrator_history = train_regressor(calibrator, calibrator_data.x_train,
                                         calibrator_data.y_train,
                                         finetune_config)
    acc, err = evaluate_pair(decision, calibrator, decision_data,
                             calibrator_data)
    return TrainedPair(decision, calibrator, acc, err,
                       decision_history, calibrator_history)


def pruning_sweep(pair: TrainedPair, decision_data: SplitData,
                  calibrator_data: SplitData,
                  grid: list[tuple[float, float]] | None = None
                  ) -> list[CompressionPoint]:
    """Prune+fine-tune a copy of ``pair`` at every (x1, x2) of the grid
    -> Fig. 3 pruning curve."""
    grid = grid or default_pruning_grid()
    points = []
    for x1, x2 in grid:
        pruned = prune_and_finetune(pair, x1, x2, decision_data,
                                    calibrator_data)
        total_weights = (
            sum(l.weights.size for l in pruned.decision.layers)
            + sum(l.weights.size for l in pruned.calibrator.layers))
        active = (pruned.decision.num_active_weights
                  + pruned.calibrator.num_active_weights)
        points.append(CompressionPoint(
            label=f"x1={x1:.2f},x2={x2:.2f}",
            method="pruning",
            flops=pruned.flops_sparse,
            accuracy_pct=pruned.accuracy_pct,
            mape_pct=pruned.mape_pct,
            decision_sizes=tuple(pruned.decision.layer_sizes),
            calibrator_sizes=tuple(pruned.calibrator.layer_sizes),
            sparsity=1.0 - active / total_weights,
        ))
    return points
