"""Unit-conversion helpers."""

import pytest

from repro import units


def test_us_round_trip():
    assert units.to_us(units.us(10.0)) == pytest.approx(10.0)


def test_cycles_to_seconds():
    # 1165 cycles at 1165 MHz is exactly one microsecond.
    assert 1165.0 / units.mhz(1165) == pytest.approx(units.us(1))


def test_us_of_zero():
    assert units.us(0.0) == 0.0
