"""Figure data export.

Writes the Fig. 4 results as JSON so the paper's figure can be
re-plotted with any external tool.  (This repository deliberately has
no plotting dependency.)
"""

from __future__ import annotations

from pathlib import Path

from ..store import write_json
from .experiments import Fig4Result


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
    write_json(path, payload)
