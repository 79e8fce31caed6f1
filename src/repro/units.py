"""Unit helpers.

All internal computation uses SI base units (seconds, hertz, joules,
watts).  These helpers exist so call sites can say what they mean
(``us(10)``) instead of sprinkling ``1e-6`` literals around.
"""

from __future__ import annotations

#: One microsecond, in seconds.
MICROSECOND = 1e-6
#: One megahertz, in hertz.
MEGAHERTZ = 1e6


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def mhz(value: float) -> float:
    """Convert megahertz to hertz."""
    return value * MEGAHERTZ


def to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds / MICROSECOND
