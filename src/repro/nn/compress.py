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

Both sweeps fan their grid points out through the shared campaign layer
(:func:`repro.parallel.parallel_map` — retries, stall watchdog,
checkpointing and stats come for free) and cache each trained point as
``sweep-<key>.json`` through :func:`repro.parallel.cached`, keyed on
``(spec or prune params, train config, data fingerprint)``.  A grid
point is deterministic given that key, so re-sweeping after an
interruption or with an overlapping grid trains only the missing
points.  Every model here is trained by :func:`repro.nn.trainer.fit`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ..errors import CompressionError
from ..parallel import (CampaignStats, cached, campaign_checkpoint,
                        content_key, parallel_map)
from ..store import atomic_write_text
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


# ---------------------------------------------------------------------------
# Content-addressed sweep cache
# ---------------------------------------------------------------------------

def _hash_arrays(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def split_fingerprint(data: SplitData) -> str:
    """Stable content hash of one head's train/test split."""
    return _hash_arrays(np.asarray(data.x_train), np.asarray(data.y_train),
                        np.asarray(data.x_test), np.asarray(data.y_test))


def pair_fingerprint(pair: TrainedPair) -> str:
    """Stable content hash of a trained pair's weights/biases/masks."""
    arrays = []
    for model in (pair.decision, pair.calibrator):
        for layer in model.layers:
            arrays.extend((layer.weights, layer.bias, layer.mask))
    return _hash_arrays(*arrays)


def _point_payload(point: CompressionPoint) -> dict:
    payload = asdict(point)
    payload["decision_sizes"] = list(point.decision_sizes)
    payload["calibrator_sizes"] = list(point.calibrator_sizes)
    return payload


def _point_from_payload(payload: dict) -> CompressionPoint:
    return CompressionPoint(
        label=payload["label"],
        method=payload["method"],
        flops=int(payload["flops"]),
        accuracy_pct=float(payload["accuracy_pct"]),
        mape_pct=float(payload["mape_pct"]),
        decision_sizes=tuple(payload["decision_sizes"]),
        calibrator_sizes=tuple(payload["calibrator_sizes"]),
        sparsity=float(payload["sparsity"]),
    )


def _sweep_point(ctx: _LayerwiseContext | _PruningContext,
                 key_payload: dict, stats: CampaignStats, build) -> dict:
    """One grid point's payload, cached when the campaign has a cache dir.

    Without ``ctx.cache_dir`` every point is a ``sweep_cache_miss``.
    """
    if ctx.cache_dir is None:
        stats.count("sweep_cache_miss")
        return build()

    def load(path: Path) -> dict:
        payload = json.loads(path.read_text())
        _point_from_payload(payload)  # validate before trusting it
        return payload

    path = Path(ctx.cache_dir) / f"sweep-{content_key(key_payload)}.json"
    return cached(path, "sweep", stats, build, load=load,
                  save=lambda dest, payload: atomic_write_text(
                      dest, json.dumps(payload, sort_keys=True)),
                  use_cache=ctx.use_cache)


# ---------------------------------------------------------------------------
# Layer-wise sweep (campaign fan-out + cache)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LayerwiseContext:
    """Picklable shared state of one layer-wise campaign."""

    decision_data: SplitData
    calibrator_data: SplitData
    num_levels: int
    config: TrainConfig
    seed: int
    data_key: str
    cache_dir: str | None
    use_cache: bool


def _run_layerwise_task(ctx: _LayerwiseContext,
                        task: tuple[int, ArchitectureSpec]
                        ) -> tuple[dict, dict[str, int]]:
    """Train (or load) one architecture grid point; runs in a worker."""
    index, spec = task
    stats = CampaignStats()

    def build() -> dict:
        pair = train_pair(spec, ctx.decision_data, ctx.calibrator_data,
                          ctx.num_levels, ctx.config, seed=ctx.seed + index)
        stats.count("train_models", 2)
        stats.count("train_epochs", pair.epochs_run)
        return _point_payload(CompressionPoint(
            label=spec.label,
            method="layerwise",
            flops=pair.flops_dense,
            accuracy_pct=pair.accuracy_pct,
            mape_pct=pair.mape_pct,
            decision_sizes=tuple(pair.decision.layer_sizes),
            calibrator_sizes=tuple(pair.calibrator.layer_sizes),
        ))

    payload = _sweep_point(ctx, {
        "kind": "layerwise",
        "decision_hidden": list(spec.decision_hidden),
        "calibrator_hidden": list(spec.calibrator_hidden),
        "num_levels": ctx.num_levels,
        "config": asdict(ctx.config),
        "seed": ctx.seed + index,
        "data": ctx.data_key,
    }, stats, build)
    return payload, stats.counters


def layer_wise_sweep(decision_data: SplitData, calibrator_data: SplitData,
                     num_levels: int,
                     specs: list[ArchitectureSpec] | None = None,
                     config: TrainConfig | None = None,
                     seed: int = 0, *,
                     workers: int | None = None,
                     stats: CampaignStats | None = None,
                     cache_dir: str | Path | None = None,
                     use_cache: bool = True, checkpoint: bool = False,
                     retries: int = 2,
                     timeout_s: float | None = None
                     ) -> list[CompressionPoint]:
    """Train every architecture in the grid -> Fig. 3 layer-wise curve.

    Grid points fan out through :func:`repro.parallel.parallel_map`
    (``workers``/``retries``/``timeout_s``/``checkpoint`` behave as in
    the datagen campaigns) and are cached per point under ``cache_dir``
    keyed on (spec, train config, seed, data fingerprint) — counters
    ``sweep_cache_hit`` / ``sweep_cache_miss`` / ``sweep_cache_corrupt``
    and ``train_models`` / ``train_epochs`` land in ``stats``.  Serial
    uncached runs behave exactly like the original in-line loop.
    """
    specs = specs or default_layerwise_grid()
    config = config or TrainConfig()
    stats = stats if stats is not None else CampaignStats()
    data_key = (f"{split_fingerprint(decision_data)}-"
                f"{split_fingerprint(calibrator_data)}")
    ctx = _LayerwiseContext(
        decision_data=decision_data, calibrator_data=calibrator_data,
        num_levels=num_levels, config=config, seed=seed, data_key=data_key,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        use_cache=use_cache)
    ckpt = None
    if checkpoint and cache_dir is not None:
        ckpt = campaign_checkpoint(cache_dir, "sweep-layerwise", content_key({
            "kind": "layerwise-campaign", "data": data_key, "seed": seed,
            "config": asdict(config),
            "specs": [spec.label for spec in specs]}))
    outputs = parallel_map(partial(_run_layerwise_task, ctx),
                           list(enumerate(specs)), workers=workers,
                           stats=stats, stage="layerwise_sweep",
                           retries=retries, timeout_s=timeout_s,
                           checkpoint=ckpt)
    points = []
    for payload, counters in outputs:
        stats.counters.update(counters)
        points.append(_point_from_payload(payload))
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


# ---------------------------------------------------------------------------
# Pruning sweep (campaign fan-out + cache)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PruningContext:
    """Picklable shared state of one pruning campaign."""

    pair: TrainedPair
    decision_data: SplitData
    calibrator_data: SplitData
    finetune_config: TrainConfig
    data_key: str
    pair_key: str
    cache_dir: str | None
    use_cache: bool


def _run_pruning_task(ctx: _PruningContext, task: tuple[float, float]
                      ) -> tuple[dict, dict[str, int]]:
    """Prune+fine-tune (or load) one grid point; runs in a worker."""
    x1, x2 = task
    stats = CampaignStats()

    def build() -> dict:
        pruned = prune_and_finetune(ctx.pair, x1, x2, ctx.decision_data,
                                    ctx.calibrator_data, ctx.finetune_config)
        stats.count("train_models", 2)
        stats.count("train_epochs", pruned.epochs_run)
        total_weights = (
            sum(l.weights.size for l in pruned.decision.layers)
            + sum(l.weights.size for l in pruned.calibrator.layers))
        active = (pruned.decision.num_active_weights
                  + pruned.calibrator.num_active_weights)
        return _point_payload(CompressionPoint(
            label=f"x1={x1:.2f},x2={x2:.2f}",
            method="pruning",
            flops=pruned.flops_sparse,
            accuracy_pct=pruned.accuracy_pct,
            mape_pct=pruned.mape_pct,
            decision_sizes=tuple(pruned.decision.layer_sizes),
            calibrator_sizes=tuple(pruned.calibrator.layer_sizes),
            sparsity=1.0 - active / total_weights,
        ))

    payload = _sweep_point(ctx, {
        "kind": "pruning",
        "x1": x1,
        "x2": x2,
        "config": asdict(ctx.finetune_config),
        "data": ctx.data_key,
        "pair": ctx.pair_key,
    }, stats, build)
    return payload, stats.counters


def pruning_sweep(pair: TrainedPair, decision_data: SplitData,
                  calibrator_data: SplitData,
                  grid: list[tuple[float, float]] | None = None,
                  finetune_config: TrainConfig | None = None, *,
                  workers: int | None = None,
                  stats: CampaignStats | None = None,
                  cache_dir: str | Path | None = None,
                  use_cache: bool = True, checkpoint: bool = False,
                  retries: int = 2,
                  timeout_s: float | None = None
                  ) -> list[CompressionPoint]:
    """Prune+fine-tune across the grid -> Fig. 3 pruning curve.

    Fans out and caches like :func:`layer_wise_sweep`; pruning points
    are additionally keyed on the base pair's weight fingerprint, so a
    retrained base invalidates its cached pruning curve.
    """
    grid = grid or default_pruning_grid()
    finetune_config = finetune_config or TrainConfig(
        epochs=40, patience=10, learning_rate=5e-4)
    stats = stats if stats is not None else CampaignStats()
    data_key = (f"{split_fingerprint(decision_data)}-"
                f"{split_fingerprint(calibrator_data)}")
    pair_key = pair_fingerprint(pair)
    ctx = _PruningContext(
        pair=pair, decision_data=decision_data,
        calibrator_data=calibrator_data, finetune_config=finetune_config,
        data_key=data_key, pair_key=pair_key,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        use_cache=use_cache)
    ckpt = None
    if checkpoint and cache_dir is not None:
        ckpt = campaign_checkpoint(cache_dir, "sweep-pruning", content_key({
            "kind": "pruning-campaign", "data": data_key, "pair": pair_key,
            "config": asdict(finetune_config),
            "grid": [[x1, x2] for x1, x2 in grid]}))
    outputs = parallel_map(partial(_run_pruning_task, ctx), list(grid),
                           workers=workers, stats=stats,
                           stage="pruning_sweep", retries=retries,
                           timeout_s=timeout_s, checkpoint=ckpt)
    points = []
    for payload, counters in outputs:
        stats.counters.update(counters)
        points.append(_point_from_payload(payload))
    return points
