"""Figure/table data export.

Writes experiment results as CSV/JSON so the paper's figures can be
re-plotted with any external tool.  (This repository deliberately has
no plotting dependency.)
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..errors import ReproError
from ..store import atomic_write_text
from .experiments import Fig3Result, Fig4Result
from .runner import ComparisonResult


def export_comparison_csv(comparison: ComparisonResult,
                          path: str | Path) -> None:
    """Per-(policy, kernel) rows of one Fig. 4 panel."""
    rows = [["policy", "kernel", "time_s", "energy_j", "normalized_edp",
             "normalized_latency", "epochs"]]
    for run in comparison.runs:
        rows.append([run.policy_name, run.kernel_name,
                     f"{run.time_s:.9e}", f"{run.energy_j:.9e}",
                     f"{run.normalized_edp:.6f}",
                     f"{run.normalized_latency:.6f}", run.epochs])
    _write_csv(path, rows)


def _write_csv(path: str | Path, rows: list[list]) -> None:
    """Write ``rows`` as CSV (``\\r\\n`` line ends) atomically."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def export_fig4_json(result: Fig4Result, path: str | Path) -> None:
    """Full Fig. 4 payload (per preset, per policy, per kernel)."""
    payload = {}
    for preset, comparison in result.comparisons.items():
        payload[f"{preset:.2f}"] = {
            policy: {
                run.kernel_name: {
                    "edp": run.normalized_edp,
                    "latency": run.normalized_latency,
                }
                for run in comparison.series(policy)
            }
            for policy in comparison.policies()
        }
    payload["headline"] = result.headline() if result.comparisons else {}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def export_fig3_csv(result: Fig3Result, path: str | Path) -> None:
    """Both Fig. 3 frontiers as flat rows."""
    rows = [["method", "label", "flops", "accuracy_pct", "mape_pct",
             "sparsity"]]
    for point in result.layerwise + result.pruning:
        rows.append([point.method, point.label, point.flops,
                     f"{point.accuracy_pct:.4f}", f"{point.mape_pct:.4f}",
                     f"{point.sparsity:.4f}"])
    _write_csv(path, rows)


def load_fig4_json(path: str | Path) -> dict:
    """Load a payload written by :func:`export_fig4_json`."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no exported figure at {path}")
    return json.loads(path.read_text())
