"""Mini-batch Adam training loop with validation-based early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .losses import MeanSquaredError, SoftmaxCrossEntropy
from .mlp import MLP
from .optim import Adam

#: Improvement in validation loss an epoch must beat the best by to
#: reset early stopping's patience (loss units).
MIN_DELTA = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 80
    batch_size: int = 64
    learning_rate: float = 1e-3
    validation_fraction: float = 0.15
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise TrainingError("epochs must be positive")
        if self.batch_size <= 0:
            raise TrainingError("batch_size must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise TrainingError("validation_fraction must be in [0, 1)")
        if self.patience <= 0:
            raise TrainingError("patience must be positive")


@dataclass
class TrainHistory:
    """Per-epoch losses and the early-stopping outcome."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_losses)


def _forward_into(model: MLP, x: np.ndarray,
                  buffers: list[np.ndarray]) -> np.ndarray:
    """Inference forward writing each layer's output into ``buffers``.

    Runs the exact inference-path ops of :meth:`Dense.forward`
    (masked-weight matmul, in-place bias add, in-place relu) with
    preallocated destinations, so the repeated validation pass of the
    training loop stops allocating fresh activation arrays every epoch.
    """
    for layer, buffer in zip(model.layers, buffers):
        np.matmul(x, layer._masked_weights(), out=buffer)
        buffer += layer.bias
        if layer.activation == "relu":
            np.maximum(buffer, 0.0, out=buffer)
        x = buffer
    return x


def fit(model: MLP, features: np.ndarray, targets: np.ndarray, loss_fn,
        config: TrainConfig | None = None) -> TrainHistory:
    """Train ``model`` in place; returns the training history.

    The model is restored to its best-validation-loss checkpoint before
    returning.  With ``validation_fraction == 0`` the train loss doubles
    as the early-stopping signal.
    """
    config = config or TrainConfig()
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    if features.ndim != 2:
        raise TrainingError("features must be 2-D (samples, width)")
    if features.shape[0] != targets.shape[0]:
        raise TrainingError("features/targets row-count mismatch")
    if features.shape[0] < 2:
        raise TrainingError("need at least two samples to train")
    if features.shape[1] != model.input_size:
        raise TrainingError(
            f"model expects width {model.input_size}, data has "
            f"{features.shape[1]}"
        )

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(features.shape[0])
    n_val = int(features.shape[0] * config.validation_fraction)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise TrainingError("validation split leaves no training data")
    x_train, y_train = features[train_idx], targets[train_idx]
    x_val, y_val = features[val_idx], targets[val_idx]

    optimizer = Adam(model, learning_rate=config.learning_rate)
    history = TrainHistory()
    best_loss = np.inf
    # The best-epoch checkpoint is one copy of the optimizer's flat
    # parameter vector, restored in place.
    best_params = np.empty_like(optimizer.params)
    since_best = 0
    # Per-epoch shuffle lands in reused buffers, so minibatches are
    # contiguous slices instead of a fresh fancy-indexed copy per batch;
    # the validation pass likewise reuses its activation buffers.
    x_shuffled = np.empty_like(x_train)
    y_shuffled = np.empty_like(y_train)
    val_buffers = ([np.empty((x_val.shape[0], layer.fan_out))
                    for layer in model.layers] if n_val > 0 else [])

    for epoch in range(config.epochs):
        perm = rng.permutation(x_train.shape[0])
        np.take(x_train, perm, axis=0, out=x_shuffled)
        np.take(y_train, perm, axis=0, out=y_shuffled)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, x_train.shape[0], config.batch_size):
            stop = start + config.batch_size
            outputs = model.forward(x_shuffled[start:stop], train=True)
            loss, grad = loss_fn(outputs, y_shuffled[start:stop])
            model.backward(grad)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        history.train_losses.append(epoch_loss / max(1, batches))

        if n_val > 0:
            val_out = _forward_into(model, x_val, val_buffers)
            val_loss, _ = loss_fn(val_out, y_val)
        else:
            val_loss = history.train_losses[-1]
        history.val_losses.append(val_loss)

        if val_loss < best_loss - MIN_DELTA:
            best_loss = val_loss
            np.copyto(best_params, optimizer.params)
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    if history.best_epoch >= 0:
        np.copyto(optimizer.params, best_params)
    for layer in model.layers:
        # Drop the last minibatch's caches, which pin the training copy.
        layer._cache_input = layer._cache_preact = None
    return history


def train_classifier(model: MLP, features: np.ndarray, labels: np.ndarray,
                     config: TrainConfig | None = None) -> TrainHistory:
    """Train a softmax classifier head."""
    labels = np.asarray(labels, dtype=np.int64)
    return fit(model, features, labels, SoftmaxCrossEntropy(), config)


def train_regressor(model: MLP, features: np.ndarray, targets: np.ndarray,
                    config: TrainConfig | None = None) -> TrainHistory:
    """Train an MSE regressor head."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    return fit(model, features, targets, MeanSquaredError(), config)
