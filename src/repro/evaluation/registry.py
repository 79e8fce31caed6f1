"""Experiment registry.

A single machine-readable index of every paper artefact this repository
reproduces: its id, what the paper reports, which modules implement the
pieces, and which benchmark regenerates it.  ``DESIGN.md``'s experiment
index and the CLI's ``experiments`` listing are views of this table.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artefact."""

    experiment_id: str
    title: str
    paper_claim: str
    modules: tuple[str, ...]
    bench: str
    driver: str
    extension: bool = False


_REGISTRY: tuple[ExperimentEntry, ...] = (
    ExperimentEntry(
        experiment_id="table1",
        title="Feature selection (Table I)",
        paper_claim="RFE keeps 3 indirect counters + power; -0.48 pp acc",
        modules=("repro.datagen.rfe", "repro.datagen.features",
                 "repro.nn.trainer"),
        bench="benchmarks/bench_table1_rfe.py",
        driver="repro.evaluation.experiments.run_table1",
    ),
    ExperimentEntry(
        experiment_id="table2",
        title="Final model information (Table II)",
        paper_claim="6960 -> 366 FLOPs; 69.8 -> 67.4 % acc; 3.4 -> 4.6 % MAPE",
        modules=("repro.nn.compress", "repro.nn.prune", "repro.nn.flops"),
        bench="benchmarks/bench_table2_model.py",
        driver="repro.evaluation.experiments.run_table2",
    ),
    ExperimentEntry(
        experiment_id="fig3",
        title="FLOPs vs accuracy/MAPE frontiers (Fig. 3)",
        paper_claim="sharp knee below a FLOPs threshold; pruning frontier wins",
        modules=("repro.nn.compress", "repro.nn.prune"),
        bench="benchmarks/bench_fig3_compression.py",
        driver="repro.evaluation.experiments.run_fig3",
    ),
    ExperimentEntry(
        experiment_id="fig4",
        title="Normalized EDP & latency (Fig. 4 + §V-C headline)",
        paper_claim="-11.09 % EDP vs baseline; -13.17 % vs PCSTALL; "
                    "-36.80 % vs F-LEMMA; latency within preset",
        modules=("repro.core.controller", "repro.baselines.pcstall",
                 "repro.baselines.flemma", "repro.evaluation.runner"),
        bench="benchmarks/bench_fig4_edp_latency.py",
        driver="repro.evaluation.experiments.run_fig4",
    ),
    ExperimentEntry(
        experiment_id="hw",
        title="ASIC implementation (§V-D)",
        paper_claim="0.0080 mm^2 @28 nm; 2.5 mW; 192 cycles (1.65 % of epoch)",
        modules=("repro.hardware.asic", "repro.hardware.scaling"),
        bench="benchmarks/bench_hw_asic.py",
        driver="repro.evaluation.experiments.run_hardware",
    ),
    ExperimentEntry(
        experiment_id="ablate-calibrator",
        title="Calibrator ablation (§V-C claim)",
        paper_claim="Calibrator pulls preset-violating programs back under",
        modules=("repro.core.controller",),
        bench="benchmarks/bench_ablation_calibrator.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="ablate-epoch",
        title="Epoch-length ablation (§I premise)",
        paper_claim="microsecond epochs beat coarse epochs on swinging phases",
        modules=("repro.core.policy", "repro.gpu.simulator"),
        bench="benchmarks/bench_ablation_epoch_length.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="ablate-quant",
        title="Controller precision ablation (§V-D adjacent)",
        paper_claim="FP32 module; 16-bit fixed point is behaviourally equal",
        modules=("repro.nn.quant", "repro.core.combined"),
        bench="benchmarks/bench_ablation_quantization.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="ablate-thermal",
        title="Thermal headroom (extension)",
        paper_claim="DVFS lowers sustained temperature (leakage feedback)",
        modules=("repro.power.thermal",),
        bench="benchmarks/bench_ablation_thermal.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="robustness",
        title="Counter noise + seed sweep (extension)",
        paper_claim="graceful degradation; stable aggregates",
        modules=("repro.evaluation.robustness",),
        bench="benchmarks/bench_robustness.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="mixed-tenancy",
        title="Heterogeneous multi-tenant GPU (extension)",
        paper_claim="per-cluster DVFS beats every chip-wide static level",
        modules=("repro.gpu.simulator", "repro.core.controller"),
        bench="benchmarks/bench_mixed_tenancy.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="fleet-replay",
        title="Fleet-scale trace replay over per-GPU controllers (extension)",
        paper_claim="(per-node DVFS holds fleet SLOs under bursty load)",
        modules=("repro.fleet.scheduler", "repro.fleet.jobs",
                 "repro.fleet.metrics"),
        bench="benchmarks/bench_mixed_tenancy.py",
        driver="repro.cli.cmd_fleet",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="fleet-chaos",
        title="Fleet resilience under node-fault trains (extension)",
        paper_claim="(no job lost, byte-stable replay, bounded recovery "
                    "under crash/hang/thermal/storm chaos)",
        modules=("repro.evaluation.fleet_chaos", "repro.faults",
                 "repro.fleet.tracker"),
        bench="benchmarks/bench_robustness.py",
        driver="repro.cli.cmd_fleet_chaos",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="serve-chaos",
        title="Always-on serving runtime under fault trains (extension)",
        paper_claim="(no invalid decision served, request conservation, "
                    "bounded recovery, byte-stable replay, shed "
                    "discipline under serving chaos)",
        modules=("repro.serve", "repro.evaluation.serve_chaos",
                 "repro.faults"),
        bench="benchmarks/bench_robustness.py",
        driver="repro.cli.cmd_serve_chaos",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="ablate-event-driven",
        title="Event-driven inference gating (extension)",
        paper_claim="(most per-epoch inferences are skippable at no cost)",
        modules=("repro.core.event_driven",),
        bench="benchmarks/bench_ablation_event_driven.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="ablate-vf-granularity",
        title="V/f operating-point granularity (extension)",
        paper_claim="(6-point table captures most of the oracle headroom)",
        modules=("repro.gpu.vf", "repro.core.policy"),
        bench="benchmarks/bench_ablation_vf_granularity.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="transfer-study",
        title="Trained controller on the per-cycle substrate (validation)",
        paper_claim="(the learned mapping is physics, not substrate)",
        modules=("repro.gpu.detailed.runner", "repro.core.controller"),
        bench="benchmarks/bench_transfer_study.py",
        driver="(bench-local)",
        extension=True,
    ),
    ExperimentEntry(
        experiment_id="model-agreement",
        title="Interval vs per-cycle simulator agreement (validation)",
        paper_claim="(substrate credibility, not a paper artefact)",
        modules=("repro.gpu.interval_model", "repro.gpu.detailed"),
        bench="benchmarks/bench_model_agreement.py",
        driver="(bench-local)",
        extension=True,
    ),
)


def all_experiments() -> tuple[ExperimentEntry, ...]:
    """Every registered experiment, paper artefacts first."""
    return _REGISTRY


def render_registry(extensions: bool = True) -> str:
    """Text table of the registry."""
    from .reporting import format_table
    rows = []
    for entry in _REGISTRY:
        if not extensions and entry.extension:
            continue
        rows.append([entry.experiment_id, entry.title,
                     "ext" if entry.extension else "paper", entry.bench])
    return format_table(["Id", "Artefact", "Kind", "Bench"], rows,
                        title="Experiment registry")
