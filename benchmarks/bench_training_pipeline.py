"""Training-pipeline perf gates: batched RFE scoring and fit's rate.

The offline stage of the paper retrains small MLPs hundreds of times
(RFE rounds, the Fig. 3 architecture grid, pruning fine-tunes).  This
module is the perf-regression gate for the machinery that makes those
campaigns cheap:

* **RFE importance scoring** — the ``(columns x repeats)`` permuted test
  copies scored as one stacked forward must stay >= 3x faster than the
  serial per-column ``predict_class`` loop, while returning bit-equal
  importances on the identical random stream.
* **Training throughput** — optimizer steps per second of ``fit`` on a
  fixed 5x20 classifier and data size.  Recorded PR over PR as an
  absolute rate, not gated.

All timing is plain ``time.perf_counter`` (best-of-N), so these run
under ``--benchmark-disable`` in the CI smoke job, and the numbers are
persisted to ``benchmarks/results/BENCH_training_pipeline.json``.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.datagen.rfe import (ImportanceWorkspace, _permutation_importance,
                               permutation_importances)
from repro.nn.compress import ArchitectureSpec, SplitData, layer_wise_sweep
from repro.nn.mlp import MLP
from repro.nn.trainer import TrainConfig, train_classifier

RESULTS_PATH = Path(__file__).resolve().parent / "results" / \
    "BENCH_training_pipeline.json"


def _update_results(section: str, payload: dict) -> None:
    """Merge one section into the persisted training-pipeline results."""
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    if RESULTS_PATH.exists():
        try:
            results = json.loads(RESULTS_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            results = {}
    results[section] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")


def _best_of_interleaved(fns, trials=11):
    """Best-of timings with the contenders interleaved trial by trial.

    Machine-wide drift (frequency scaling, page placement) then hits
    every contender alike, so the *ratio* of bests stays honest even
    when absolute times wander.  GC is paused around the timed region
    for the same reason.
    """
    bests = [float("inf")] * len(fns)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(trials):
            for index, fn in enumerate(fns):
                start = time.perf_counter()
                fn()
                bests[index] = min(bests[index],
                                   time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return bests


# ---------------------------------------------------------------------------
# RFE importance scoring: batched stack vs serial per-column loop
# ---------------------------------------------------------------------------

_RFE_ROWS = 48
_RFE_WIDTH = 13     # PPC + 12 surviving indirect candidates
_RFE_LEVELS = 6     # Titan X V/f table depth
_RFE_REPEATS = 3
_RFE_HIDDEN = (20,) * 5  # the paper's 5x20 Decision-maker


def _rfe_setup():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(_RFE_ROWS, _RFE_WIDTH))
    y = rng.integers(0, _RFE_LEVELS, size=_RFE_ROWS)
    model = MLP([_RFE_WIDTH, *_RFE_HIDDEN, _RFE_LEVELS],
                rng=np.random.default_rng(1))
    columns = list(range(1, _RFE_WIDTH))
    return model, x, y, columns


def test_rfe_importance_batched_speedup():
    """The stacked scoring path must stay >= 3x over the serial loop.

    The serial reference is the original per-column loop (one
    ``predict_class`` per repeat plus the per-column baseline re-check);
    the batched path scores every ``column x repeat`` slice with one
    flattened GEMM per model layer.  Exactness is asserted first —
    identical random stream, bit-equal importances — so the speedup can
    never come from computing something cheaper.
    """
    model, x, y, columns = _rfe_setup()

    def serial():
        rng = np.random.default_rng(9)
        return np.array([
            _permutation_importance(model, x, y, column, rng,
                                    repeats=_RFE_REPEATS)
            for column in columns
        ])

    workspace = ImportanceWorkspace()

    def batched():
        rng = np.random.default_rng(9)
        return permutation_importances(model, x, y, columns, rng,
                                       repeats=_RFE_REPEATS,
                                       workspace=workspace)

    serial_scores, batched_scores = serial(), batched()
    np.testing.assert_array_equal(serial_scores, batched_scores)

    serial_s, batched_s = _best_of_interleaved([serial, batched])
    speedup = serial_s / batched_s
    _update_results("rfe_importance", {
        "rows": _RFE_ROWS,
        "columns": len(columns),
        "repeats": _RFE_REPEATS,
        "hidden": list(_RFE_HIDDEN),
        "serial_ms": serial_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": speedup,
        "max_abs_diff": float(np.abs(serial_scores - batched_scores).max()),
    })
    assert speedup >= 3.0, f"batched RFE scoring regressed: {speedup:.2f}x"


# ---------------------------------------------------------------------------
# Fig. 3 sweep inputs for the reproducibility check
# ---------------------------------------------------------------------------

_SWEEP_SPECS = [ArchitectureSpec((10,) * 2, (8,))]
_SWEEP_CFG = TrainConfig(epochs=10, patience=4, seed=1)


def _sweep_splits():
    rng = np.random.default_rng(2)
    xd = rng.normal(size=(128, 5))
    yd = (xd.sum(axis=1) > 0).astype(np.int64)
    xr = rng.normal(size=(128, 5))
    yr = xr @ rng.normal(size=5)
    return (SplitData(xd[:96], yd[:96], xd[96:], yd[96:]),
            SplitData(xr[:96], yr[:96], xr[96:], yr[96:]))


# ---------------------------------------------------------------------------
# Training throughput: optimizer steps per second of fit
# ---------------------------------------------------------------------------

_FIT_ROWS = 1024
_FIT_CFG = TrainConfig(epochs=20, patience=20, batch_size=64, seed=1)


def test_fit_rate():
    """Record fit's absolute rate in optimizer steps per second.

    The Decision-maker shape (PPC + 12 candidates + the preset input,
    5x20 hidden, 6 levels) trained for a fixed number of epochs; the
    rate is the best of interleaved repeats.  Ungated: the record
    tracks it PR over PR.
    """
    rng = np.random.default_rng(3)
    x = rng.normal(size=(_FIT_ROWS, _RFE_WIDTH + 1))
    y = rng.integers(0, _RFE_LEVELS, size=_FIT_ROWS)

    def train():
        model = MLP([_RFE_WIDTH + 1, *_RFE_HIDDEN, _RFE_LEVELS],
                    rng=np.random.default_rng(1))
        return train_classifier(model, x, y, _FIT_CFG)

    history = train()
    n_train = _FIT_ROWS - int(_FIT_ROWS * _FIT_CFG.validation_fraction)
    steps = history.epochs_run * -(-n_train // _FIT_CFG.batch_size)
    (best_s,) = _best_of_interleaved([train])
    _update_results("fit_rate", {
        "rows": _FIT_ROWS,
        "width": _RFE_WIDTH + 1,
        "hidden": list(_RFE_HIDDEN),
        "levels": _RFE_LEVELS,
        "batch_size": _FIT_CFG.batch_size,
        "epochs": history.epochs_run,
        "steps": steps,
        "fit_ms": best_s * 1e3,
        "steps_per_s": steps / best_s,
    })


def test_training_pipeline_reproducibility():
    """Same seeds -> identical RFE scores and sweep points."""
    model, x, y, columns = _rfe_setup()
    first = permutation_importances(model, x, y, columns,
                                    np.random.default_rng(9))
    second = permutation_importances(model, x, y, columns,
                                     np.random.default_rng(9))
    assert np.array_equal(first, second)

    decision_data, calibrator_data = _sweep_splits()
    points_a = layer_wise_sweep(decision_data, calibrator_data, 2,
                                _SWEEP_SPECS, _SWEEP_CFG)
    points_b = layer_wise_sweep(decision_data, calibrator_data, 2,
                                _SWEEP_SPECS, _SWEEP_CFG)
    assert points_a == points_b
    _update_results("reproducibility", {
        "rfe_scores_identical": True,
        "sweep_points_identical": True,
    })
