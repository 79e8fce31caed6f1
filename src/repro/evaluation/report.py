"""Combined report generation.

Collects the rendered artefacts the benchmarks wrote under
``benchmarks/results/`` into one markdown report, ordered by the
experiment registry, with the paper claims inlined next to each
measured table.  ``repro-ssmdvfs report`` drives this from the CLI.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ReproError
from ..store import atomic_write_text
from .registry import all_experiments

#: results-file name per experiment id (as written by the benches).
_RESULT_FILES = {
    "table1": "table1_rfe.txt",
    "table2": "table2_model.txt",
    "fig3": "fig3_compression.txt",
    "fig4": "fig4_edp_latency.txt",
    "hw": "hw_asic.txt",
    "ablate-calibrator": "ablation_calibrator.txt",
    "ablate-epoch": "ablation_epoch_length.txt",
    "ablate-quant": "ablation_quantization.txt",
    "ablate-thermal": "ablation_thermal.txt",
    "ablate-event-driven": "ablation_event_driven.txt",
    "ablate-vf-granularity": "ablation_vf_granularity.txt",
    "robustness": "robustness_noise.txt",
    "mixed-tenancy": "mixed_tenancy.txt",
    "transfer-study": "transfer_study.txt",
    "model-agreement": "model_agreement.txt",
}


def build_report(results_dir: str | Path) -> str:
    """Assemble the markdown report from the results directory."""
    results_dir = Path(results_dir)
    if not results_dir.exists():
        raise ReproError(
            f"no results at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    sections = ["# SSMDVFS reproduction report",
                "",
                "Generated from the rendered benchmark outputs in "
                f"`{results_dir}`.", ""]
    for entry in all_experiments():
        filename = _RESULT_FILES.get(entry.experiment_id)
        if filename is None:
            continue
        path = results_dir / filename
        kind = "extension" if entry.extension else "paper artefact"
        sections.append(f"## {entry.title}")
        sections.append("")
        sections.append(f"*{kind}* — paper claim: {entry.paper_claim}")
        sections.append("")
        if path.exists():
            sections.append("```")
            sections.append(path.read_text().rstrip())
            sections.append("```")
        else:
            sections.append(f"*(not yet measured — run `pytest "
                            f"{entry.bench} --benchmark-only`)*")
        sections.append("")
    return "\n".join(sections)


def write_report(results_dir: str | Path, output: str | Path) -> Path:
    """Build the report and write it to ``output``; returns the path."""
    output = Path(output)
    atomic_write_text(output, build_report(results_dir))
    return output
