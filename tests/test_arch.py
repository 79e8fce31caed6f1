"""GPU architecture configuration."""

import pytest

from repro.errors import ConfigError
from repro.gpu.arch import GPUArchConfig, small_test_config, titan_x_config
from repro.gpu.interval_model import solve_throughput
from repro.gpu.phases import Phase, make_mix
from repro.units import mhz


def test_titan_x_cluster_count():
    assert titan_x_config().num_clusters == 24


def test_titan_x_default_frequency():
    assert titan_x_config().default_frequency_hz == pytest.approx(mhz(1165))


def test_cluster_bandwidth_is_fair_share():
    arch = titan_x_config()
    assert arch.cluster_bandwidth_bytes_per_s == pytest.approx(
        arch.dram_bandwidth_bytes_per_s / arch.num_clusters)


def _memory_latency_cycles(arch, l1_miss_rate, l2_miss_rate, frequency_hz):
    """The solver's average load-to-use latency for a phase with these
    miss rates, in core cycles at ``frequency_hz``."""
    phase = Phase("latency", 10_000, mix=make_mix(fp32=0.6, load=0.2),
                  l1_miss_rate=l1_miss_rate, l2_miss_rate=l2_miss_rate)
    return solve_throughput(arch, phase, frequency_hz).mem_latency_cycles


def test_memory_latency_pure_l1_hit_is_frequency_invariant_in_cycles():
    arch = titan_x_config()
    lat_fast = _memory_latency_cycles(arch, 0.0, 0.0, mhz(1165))
    lat_slow = _memory_latency_cycles(arch, 0.0, 0.0, mhz(683))
    assert lat_fast == pytest.approx(lat_slow)
    assert lat_fast == pytest.approx(arch.l1_hit_latency_cycles)


def test_memory_latency_grows_with_frequency_when_missing():
    arch = titan_x_config()
    lat_fast = _memory_latency_cycles(arch, 1.0, 1.0, mhz(1165))
    lat_slow = _memory_latency_cycles(arch, 1.0, 1.0, mhz(683))
    assert lat_fast > lat_slow


def test_memory_latency_grows_with_miss_rates():
    arch = titan_x_config()
    f = mhz(1165)
    assert (_memory_latency_cycles(arch, 0.8, 0.5, f)
            > _memory_latency_cycles(arch, 0.2, 0.5, f))
    assert (_memory_latency_cycles(arch, 0.5, 0.9, f)
            > _memory_latency_cycles(arch, 0.5, 0.1, f))


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        GPUArchConfig(num_clusters=0)
    with pytest.raises(ConfigError):
        GPUArchConfig(issue_width=0)
    with pytest.raises(ConfigError):
        GPUArchConfig(dram_bandwidth_bytes_per_s=-1)
    with pytest.raises(ConfigError):
        GPUArchConfig(cache_line_bytes=0)


def test_small_test_config_is_smaller():
    small = small_test_config()
    big = titan_x_config()
    assert small.num_clusters < big.num_clusters
    assert small.vf_table.num_levels == big.vf_table.num_levels
