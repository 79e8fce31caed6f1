"""Evaluation metrics: accuracy, MAPE, confusion matrix.

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


def confusion_matrix(predicted: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) count matrix, rows = true labels."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise TrainingError("prediction/label shape mismatch")
    if num_classes <= 0:
        raise TrainingError("num_classes must be positive")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes
                        or predicted.min() < 0
                        or predicted.max() >= num_classes):
        raise TrainingError("class index out of range")
    if not labels.size:
        return np.zeros((num_classes, num_classes), dtype=np.int64)
    flat = (labels.astype(np.int64).ravel() * num_classes
            + predicted.astype(np.int64).ravel())
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def macro_f1(predicted: np.ndarray, labels: np.ndarray,
             num_classes: int) -> float:
    """Macro-averaged F1 over the classes present in the labels."""
    matrix = confusion_matrix(predicted, labels, num_classes)
    true_pos = np.diag(matrix).astype(np.float64)
    support = matrix.sum(axis=1).astype(np.float64)
    false_pos = matrix.sum(axis=0) - true_pos
    false_neg = support - true_pos
    present = support > 0
    if not present.any():
        raise TrainingError("no classes present in labels")
    denom = 2.0 * true_pos + false_pos + false_neg
    # denom > 0 wherever support > 0 (tp + fn = support), so the guard
    # only protects absent classes, which are dropped anyway.
    scores = np.where(denom > 0, 2.0 * true_pos / np.maximum(denom, 1.0), 0.0)
    return float(scores[present].mean())
