"""Supervised data-generation pipeline (§III-A) and feature selection."""

from .cache import (cached_dataset, dataset_cache_key,
                    kernel_suite_fingerprint)
from .dataset import DEFAULT_PRESET_GRID, DVFSDataset, PreparedData
from .stats import DatasetReport, KernelLossStats, analyze_dataset
from .features import FeatureExtractor, FeatureScaler
from .protocol import (BreakpointSamples, ProtocolConfig, collect_breakpoint,
                       generate_for_kernel, generate_for_suite)
from .rfe import (DEFAULT_ALWAYS_KEEP, RFEResult, RFERound, RFESelector)

__all__ = [
    "cached_dataset", "dataset_cache_key",
    "kernel_suite_fingerprint",
    "DEFAULT_PRESET_GRID", "DVFSDataset", "PreparedData",
    "DatasetReport", "KernelLossStats", "analyze_dataset",
    "FeatureExtractor", "FeatureScaler",
    "BreakpointSamples", "ProtocolConfig", "collect_breakpoint",
    "generate_for_kernel", "generate_for_suite",
    "DEFAULT_ALWAYS_KEEP", "RFEResult", "RFERound", "RFESelector",
]
