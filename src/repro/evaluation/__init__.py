"""Evaluation harness: runners, experiment drivers, reporting."""

from .cache import cached_comparison, comparison_cache_key
from .experiments import (Fig3Result, Fig4Result, HardwareResult,
                          Table1Result, Table2Result,
                          build_pipeline_for_experiments,
                          fig4_cache_token, fig4_policy_factories, run_fig3,
                          run_fig4, run_hardware, run_table1, run_table2)
from .export import (export_comparison_csv, export_fig3_csv,
                     export_fig4_json, load_fig4_json)
from .fleet_chaos import (ChaosTrial, FleetChaosConfig, FleetChaosResult,
                          run_fleet_chaos)
from .registry import (ExperimentEntry, all_experiments, get_experiment,
                       paper_experiments, render_registry)
from .reporting import format_percent, format_series, format_table
from .residency import ResidencyProfile, residency_from_records
from .robustness import (FaultSweepCell, FaultSweepResult,
                         NoisyCountersPolicy, SeedSweepResult, fault_sweep,
                         seed_sweep)
from .runner import (ComparisonResult, PolicyRun, compare_policies,
                     run_policy_on_kernel)
from .certify import crash_write_torture
from .soak import (KernelSoak, SoakConfig, SoakResult,
                   perturb_model_weights, run_soak)

__all__ = [
    "cached_comparison", "comparison_cache_key",
    "Fig3Result", "Fig4Result", "HardwareResult", "Table1Result",
    "Table2Result", "build_pipeline_for_experiments",
    "fig4_cache_token", "fig4_policy_factories", "run_fig3", "run_fig4",
    "run_hardware", "run_table1", "run_table2",
    "export_comparison_csv", "export_fig3_csv", "export_fig4_json",
    "load_fig4_json",
    "ExperimentEntry", "all_experiments", "get_experiment",
    "paper_experiments", "render_registry",
    "format_percent", "format_series", "format_table",
    "ResidencyProfile", "residency_from_records",
    "FaultSweepCell", "FaultSweepResult", "NoisyCountersPolicy",
    "SeedSweepResult", "fault_sweep", "seed_sweep",
    "ComparisonResult", "PolicyRun", "compare_policies",
    "run_policy_on_kernel",
    "KernelSoak", "SoakConfig", "SoakResult", "crash_write_torture",
    "perturb_model_weights", "run_soak",
    "ChaosTrial", "FleetChaosConfig", "FleetChaosResult",
    "run_fleet_chaos",
]
