"""Voltage/frequency operating points.

The paper uses six V/f operating points for the GTX Titan X, taken from
Guerreiro et al. (HPCA 2018): (1.0 V, 683 MHz) up to (1.155 V,
1165 MHz).  DVFS decisions are indices ("levels") into this table, with
level 0 the slowest point and the last level the default/maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import mhz


@dataclass(frozen=True)
class OperatingPoint:
    """One V/f operating point.

    Attributes
    ----------
    voltage_v:
        Supply voltage in volts.
    frequency_hz:
        Core clock frequency in hertz.
    """

    voltage_v: float
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.voltage_v <= 0:
            raise ConfigError(f"voltage must be positive, got {self.voltage_v}")
        if self.frequency_hz <= 0:
            raise ConfigError(f"frequency must be positive, got {self.frequency_hz}")


class VFTable:
    """An ordered table of operating points (slowest first).

    The table validates monotonicity: both voltage and frequency must be
    non-decreasing with level, matching how real V/f curves are built.
    """

    def __init__(self, points: list[OperatingPoint]) -> None:
        if len(points) < 2:
            raise ConfigError("a V/f table needs at least two operating points")
        for lower, upper in zip(points, points[1:]):
            if upper.frequency_hz <= lower.frequency_hz:
                raise ConfigError("operating-point frequencies must strictly increase")
            if upper.voltage_v < lower.voltage_v:
                raise ConfigError("operating-point voltages must be non-decreasing")
        self._points = tuple(points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, level: int) -> OperatingPoint:
        if not 0 <= level < len(self._points):
            raise ConfigError(
                f"V/f level {level} out of range [0, {len(self._points) - 1}]"
            )
        return self._points[level]

    @property
    def points(self) -> tuple[OperatingPoint, ...]:
        """All operating points, slowest first."""
        return self._points

    @property
    def num_levels(self) -> int:
        """Number of selectable levels."""
        return len(self._points)

    @property
    def default_level(self) -> int:
        """The default operating point: the highest level (paper §V.A)."""
        return len(self._points) - 1

    @property
    def min_level(self) -> int:
        """The slowest operating point."""
        return 0

    def clamp(self, level: int) -> int:
        """Clamp an arbitrary integer onto a valid level."""
        return max(0, min(len(self._points) - 1, int(level)))

    def frequencies_hz(self) -> list[float]:
        """List of frequencies, slowest first."""
        return [p.frequency_hz for p in self._points]


def interpolated_vf_table(base: VFTable, num_levels: int) -> VFTable:
    """Resample a V/f curve to ``num_levels`` points (granularity study).

    Endpoints are preserved; intermediate points interpolate frequency
    linearly along the curve and take the voltage of the nearest base
    point at or above the interpolated frequency (voltages are set by
    the silicon's Vmin at each frequency, so rounding *up* is the safe
    direction a vendor table would choose).
    """
    if num_levels < 2:
        raise ConfigError("need at least two operating points")
    freqs = base.frequencies_hz()
    f_min, f_max = freqs[0], freqs[-1]
    points = []
    for index in range(num_levels):
        fraction = index / (num_levels - 1)
        frequency = f_min + fraction * (f_max - f_min)
        voltage = base.points[-1].voltage_v
        for point in base.points:
            if point.frequency_hz >= frequency - 0.5e6:
                voltage = point.voltage_v
                break
        points.append(OperatingPoint(voltage, frequency))
    return VFTable(points)


def titan_x_vf_table() -> VFTable:
    """The six GTX Titan X operating points used in the paper (§V.A)."""
    return VFTable(
        [
            OperatingPoint(1.000, mhz(683)),
            OperatingPoint(1.000, mhz(780)),
            OperatingPoint(1.000, mhz(878)),
            OperatingPoint(1.000, mhz(975)),
            OperatingPoint(1.100, mhz(1100)),
            OperatingPoint(1.155, mhz(1165)),
        ]
    )
