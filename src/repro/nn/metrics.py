"""Evaluation metrics: accuracy and MAPE.

The paper reports Decision-maker quality as classification accuracy and
Calibrator quality as MAPE (mean absolute percentage error) — Table II.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact class matches."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise TrainingError("prediction/label shape mismatch")
    if predicted.size == 0:
        raise TrainingError("cannot compute accuracy of an empty batch")
    return float((predicted == labels).mean())


def within_one_accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of predictions within one V/f level of the label.

    DVFS levels are ordinal; off-by-one mistakes cost little, so this is
    a useful secondary metric next to exact accuracy.
    """
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise TrainingError("prediction/label shape mismatch")
    if predicted.size == 0:
        raise TrainingError("cannot compute accuracy of an empty batch")
    return float((np.abs(predicted - labels) <= 1).mean())


def mape(predicted: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute percentage error, in percent.

    Targets are floored at 1e-9 in magnitude so a zero target cannot
    divide by zero.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predicted.shape != targets.shape:
        raise TrainingError("prediction/target shape mismatch")
    if predicted.size == 0:
        raise TrainingError("cannot compute MAPE of an empty batch")
    denom = np.maximum(np.abs(targets), 1e-9)
    return float((np.abs(predicted - targets) / denom).mean() * 100.0)
