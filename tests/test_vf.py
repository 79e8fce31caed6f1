"""V/f operating-point table."""

import pytest

from repro.errors import ConfigError
from repro.gpu.vf import OperatingPoint, VFTable, titan_x_vf_table
from repro.units import mhz


def test_titan_x_has_six_points():
    table = titan_x_vf_table()
    assert table.num_levels == 6


def test_titan_x_matches_paper_endpoints():
    table = titan_x_vf_table()
    assert table[0].voltage_v == pytest.approx(1.0)
    assert table[0].frequency_hz == pytest.approx(683e6)
    assert table[5].voltage_v == pytest.approx(1.155)
    assert table[5].frequency_hz == pytest.approx(1165e6)


def test_default_level_is_highest():
    table = titan_x_vf_table()
    assert table.default_level == 5
    assert table.min_level == 0


def test_frequencies_strictly_increase():
    freqs = titan_x_vf_table().frequencies_hz()
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_level_out_of_range_raises():
    table = titan_x_vf_table()
    with pytest.raises(ConfigError):
        table[6]
    with pytest.raises(ConfigError):
        table[-1]


def test_clamp():
    table = titan_x_vf_table()
    assert table.clamp(-3) == 0
    assert table.clamp(99) == 5
    assert table.clamp(2) == 2


def test_level_of_frequency():
    table = titan_x_vf_table()
    assert table.frequencies_hz().index(mhz(878)) == 2
    assert mhz(900) not in table.frequencies_hz()


def test_relative_speed():
    table = titan_x_vf_table()
    default = table[table.default_level].frequency_hz
    assert table[5].frequency_hz / default == pytest.approx(1.0)
    assert table[0].frequency_hz / default == pytest.approx(683 / 1165)


def test_non_monotone_frequency_rejected():
    with pytest.raises(ConfigError):
        VFTable([OperatingPoint(1.0, mhz(800)), OperatingPoint(1.1, mhz(700))])


def test_decreasing_voltage_rejected():
    with pytest.raises(ConfigError):
        VFTable([OperatingPoint(1.1, mhz(700)), OperatingPoint(1.0, mhz(800))])


def test_single_point_table_rejected():
    with pytest.raises(ConfigError):
        VFTable([OperatingPoint(1.0, mhz(683))])


def test_negative_voltage_rejected():
    with pytest.raises(ConfigError):
        OperatingPoint(-1.0, mhz(683))


def test_iteration_yields_all_points():
    table = titan_x_vf_table()
    assert len(list(table)) == len(table) == 6
