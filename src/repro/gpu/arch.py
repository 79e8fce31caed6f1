"""GPU architecture configuration.

A :class:`GPUArchConfig` carries every microarchitectural constant the
interval model and the power model need.  The preset
:func:`titan_x_config` approximates the NVIDIA GeForce GTX Titan X
(Maxwell GM200) the paper simulates: 24 SM clusters, 128 CUDA cores per
SM, 250 W TDP.

Clock domains
-------------
Core-side latencies (``*_cycles``) are constant in *cycles* — their
wall-clock cost scales as ``1/f``.  Memory-side latencies (``*_ns``)
are constant in *nanoseconds* — their cost at the core, measured in
core cycles, grows proportionally with ``f``.  This split is what makes
memory-bound code frequency-insensitive and is the entire physical
basis of DVFS energy savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .vf import VFTable, titan_x_vf_table


@dataclass(frozen=True)
class GPUArchConfig:
    """Microarchitectural constants of the simulated GPU.

    Attributes
    ----------
    name:
        Human-readable architecture name.
    num_clusters:
        Number of independently clocked SM clusters (per-cluster DVFS).
    issue_width:
        Peak warp instructions issued per cluster per core cycle.
    max_warps_per_cluster:
        Hardware warp slots per cluster.
    warp_size:
        Threads per warp.
    l1_hit_latency_cycles:
        L1 data-cache hit latency (core clock domain).
    l2_latency_ns:
        L1-miss-to-L2 round trip (memory clock domain).
    dram_latency_ns:
        L2-miss-to-DRAM round trip (memory clock domain).
    dram_bandwidth_bytes_per_s:
        Aggregate DRAM bandwidth shared by all clusters.
    cache_line_bytes:
        Line size used to convert miss counts to traffic.
    vf_table:
        Selectable V/f operating points (slowest first).
    dvfs_transition_ns:
        Dead time when a cluster switches operating point; integrated
        voltage regulators make this sub-microsecond (paper §I).
    """

    name: str = "generic-gpu"
    num_clusters: int = 24
    issue_width: float = 4.0
    max_warps_per_cluster: int = 64
    warp_size: int = 32
    l1_hit_latency_cycles: float = 28.0
    l2_latency_ns: float = 180.0
    dram_latency_ns: float = 320.0
    dram_bandwidth_bytes_per_s: float = 336e9
    cache_line_bytes: int = 128
    vf_table: VFTable = field(default_factory=titan_x_vf_table)
    dvfs_transition_ns: float = 100.0

    def __post_init__(self) -> None:
        if self.num_clusters <= 0:
            raise ConfigError("num_clusters must be positive")
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")
        if self.max_warps_per_cluster <= 0:
            raise ConfigError("max_warps_per_cluster must be positive")
        if self.l1_hit_latency_cycles < 0:
            raise ConfigError("l1_hit_latency_cycles cannot be negative")
        if min(self.l2_latency_ns, self.dram_latency_ns) < 0:
            raise ConfigError("memory latencies cannot be negative")
        if self.dram_bandwidth_bytes_per_s <= 0:
            raise ConfigError("dram bandwidth must be positive")
        if self.cache_line_bytes <= 0:
            raise ConfigError("cache_line_bytes must be positive")

    @property
    def default_frequency_hz(self) -> float:
        """Core frequency of the default operating point."""
        return self.vf_table[self.vf_table.default_level].frequency_hz

    @property
    def cluster_bandwidth_bytes_per_s(self) -> float:
        """Fair-share DRAM bandwidth per cluster."""
        return self.dram_bandwidth_bytes_per_s / self.num_clusters


def titan_x_config() -> GPUArchConfig:
    """GTX Titan X (GM200) preset used throughout the paper (§V.A)."""
    return GPUArchConfig(
        name="gtx-titan-x",
        num_clusters=24,
        issue_width=4.0,
        max_warps_per_cluster=64,
        warp_size=32,
        l1_hit_latency_cycles=28.0,
        l2_latency_ns=180.0,
        dram_latency_ns=320.0,
        dram_bandwidth_bytes_per_s=336e9,
        cache_line_bytes=128,
        vf_table=titan_x_vf_table(),
        dvfs_transition_ns=100.0,
    )


def small_test_config(num_clusters: int = 2) -> GPUArchConfig:
    """A reduced configuration for fast unit tests."""
    return GPUArchConfig(
        name="small-test-gpu",
        num_clusters=num_clusters,
        issue_width=4.0,
        max_warps_per_cluster=48,
        warp_size=32,
        l1_hit_latency_cycles=20.0,
        l2_latency_ns=150.0,
        dram_latency_ns=300.0,
        dram_bandwidth_bytes_per_s=48e9 * num_clusters,
        cache_line_bytes=128,
        vf_table=titan_x_vf_table(),
        dvfs_transition_ns=100.0,
    )
