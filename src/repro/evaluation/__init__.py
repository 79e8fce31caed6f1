"""Evaluation harness: runners, experiment drivers, reporting."""

from .cache import cached_comparison, comparison_cache_key
from .experiments import (Fig3Result, Fig4Result, HardwareResult,
                          Table1Result, Table2Result, fig4_cache_token,
                          fig4_policy_factories, run_fig3, run_fig4,
                          run_hardware, run_table1, run_table2)
from .export import export_fig4_json
from .fleet_chaos import (ChaosTrial, FleetChaosConfig, FleetChaosResult,
                          run_fleet_chaos)
from .registry import ExperimentEntry, all_experiments, render_registry
from .reporting import format_percent, format_table
from .residency import ResidencyProfile, residency_from_records
from .robustness import (FaultSweepCell, FaultSweepResult,
                         NoisyCountersPolicy, SeedSweepResult, fault_sweep,
                         seed_sweep)
from .runner import (ComparisonResult, PolicyRun, ReplaySet,
                     compare_policies)
from .certify import crash_write_torture
from .soak import (KernelSoak, SoakConfig, SoakResult,
                   perturb_model_weights, run_soak)

__all__ = [
    "cached_comparison", "comparison_cache_key",
    "Fig3Result", "Fig4Result", "HardwareResult", "Table1Result",
    "Table2Result",
    "fig4_cache_token", "fig4_policy_factories", "run_fig3", "run_fig4",
    "run_hardware", "run_table1", "run_table2",
    "export_fig4_json",
    "ExperimentEntry", "all_experiments", "render_registry",
    "format_percent", "format_table",
    "ResidencyProfile", "residency_from_records",
    "FaultSweepCell", "FaultSweepResult", "NoisyCountersPolicy",
    "SeedSweepResult", "fault_sweep", "seed_sweep",
    "ComparisonResult", "PolicyRun", "ReplaySet", "compare_policies",
    "KernelSoak", "SoakConfig", "SoakResult", "crash_write_torture",
    "perturb_model_weights", "run_soak",
    "ChaosTrial", "FleetChaosConfig", "FleetChaosResult",
    "run_fleet_chaos",
]
