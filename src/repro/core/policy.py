"""DVFS policy interface and reference policies.

A policy observes the epoch record the simulator produces and returns
the operating-point level(s) for the next epoch.  ``StaticPolicy`` is
the paper's normalisation baseline (always the default point);
``ModelOraclePolicy`` peeks at simulator internals to compute the
per-phase optimal level — an upper bound no deployable policy can see.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter

import numpy as np

from ..errors import PolicyError
from ..gpu.interval_model import phase_params_row, solve_throughput_batch
from ..gpu.simulator import EpochRecord, GPUSimulator


def validate_decision(decision, num_levels: int,
                      num_clusters: int) -> list[int]:
    """Normalise a policy decision to a checked per-cluster level list.

    Accepts the same shapes :meth:`GPUSimulator.apply_decision` does —
    a scalar broadcast or a per-cluster sequence — but *validates*
    instead of trusting: every level must be finite, integral and in
    ``[0, num_levels)``.  Raises :class:`PolicyError` on anything else,
    which is what lets :class:`repro.core.guarded.GuardedController`
    treat a malformed decision as a guard anomaly rather than letting
    it reach the hardware model.
    """
    if type(decision) is list:
        levels = decision
    else:
        try:
            scalar = (isinstance(decision, numbers.Real)
                      or np.ndim(decision) == 0)
        except ValueError as exc:  # a ragged nested sequence
            raise PolicyError(f"malformed decision {decision!r}") from exc
        levels = [decision] * num_clusters if scalar else list(decision)
    if len(levels) != num_clusters:
        raise PolicyError(
            f"decision has {len(levels)} levels, expected {num_clusters}")
    checked: list[int] = []
    for level in levels:
        if type(level) is int:
            index = level
        elif not isinstance(level, numbers.Real):
            raise PolicyError(f"non-numeric level {level!r}")
        else:
            value = float(level)
            if not math.isfinite(value) or value != int(value):
                raise PolicyError(f"non-integral level {level!r}")
            index = int(value)
        if not 0 <= index < num_levels:
            raise PolicyError(
                f"level {index} out of range [0, {num_levels})")
        checked.append(index)
    return checked


def policy_counters(policy) -> Counter:
    """A policy stack's counters, summed with each layer counted once.

    Every counting component holds a ``counters`` :class:`Counter`.  A
    stack nests them: a wrapper (fault injector, guard) holds the
    policy it wraps as ``inner``, and a guard also holds its
    ``drift_monitor`` and ``rollback``.  The result is a fresh Counter,
    so it doubles as a snapshot; zero entries such as
    ``calibration_anomalies`` survive the fold.
    """
    totals = Counter()
    layer = policy
    while layer is not None:
        totals.update(getattr(layer, "counters", ()))
        for part in (getattr(layer, "drift_monitor", None),
                     getattr(layer, "rollback", None)):
            if part is not None:
                totals.update(part.counters)
        layer = getattr(layer, "inner", None)
    return totals


class BasePolicy:
    """Common plumbing for policies (name, simulator binding, counters)."""

    name = "base"

    def __init__(self) -> None:
        self.simulator: GPUSimulator | None = None
        self.counters = Counter()

    def reset(self, simulator: GPUSimulator) -> None:
        """Bind to a simulator at the start of a run."""
        self.simulator = simulator

    def decide(self, record: EpochRecord):
        """Return the level(s) for the next epoch."""
        raise NotImplementedError


class StaticPolicy(BasePolicy):
    """Pin every cluster at one operating point.

    ``StaticPolicy(default_level)`` is the baseline every Fig. 4 metric
    is normalised against.
    """

    def __init__(self, level: int) -> None:
        super().__init__()
        self.level = int(level)
        self.name = f"static-l{self.level}"

    def reset(self, simulator: GPUSimulator) -> None:
        """Validate the level and pin every cluster to it."""
        super().reset(simulator)
        if not 0 <= self.level < simulator.arch.vf_table.num_levels:
            raise PolicyError(f"static level {self.level} out of range")
        simulator.set_all_levels(self.level)

    def decide(self, record: EpochRecord) -> int:
        """Always the pinned level."""
        return self.level


class ModelOraclePolicy(BasePolicy):
    """Phase-peeking oracle: min level whose *sustained* slowdown fits.

    For each cluster it reads the current phase straight from the
    simulator (which no real controller could) and evaluates the
    noiseless interval model at every operating point, choosing the
    slowest level whose slowdown relative to the default point stays
    within the preset.  Useful as an upper bound and for sanity-checking
    learned policies.
    """

    def __init__(self, preset: float) -> None:
        super().__init__()
        if preset < 0:
            raise PolicyError("preset cannot be negative")
        self.preset = float(preset)
        self.name = f"oracle-p{int(round(preset * 100))}"

    def decide(self, record: EpochRecord) -> list[int]:
        """Per cluster: slowest level within the preset (phase-peeking)."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        arch = self.simulator.arch
        table = arch.vf_table
        clusters = self.simulator.clusters
        levels = [table.min_level] * len(clusters)
        running = [index for index, cluster in enumerate(clusters)
                   if not cluster.finished]
        if not running:
            return levels
        # One solve of every running cluster's phase at every level; the
        # default level's row is the baseline the slowdown is taken from.
        num_levels = table.num_levels
        params = np.repeat(np.stack([
            phase_params_row(clusters[index].cursor.current_phase)
            for index in running]), num_levels, axis=0)
        frequencies = np.tile(table.frequencies_hz(), len(running))
        ones = np.ones(len(frequencies))
        batch = solve_throughput_batch(arch, params, frequencies, ones, ones,
                                       ones)
        times = ((1000.0 / batch.ipc) / frequencies).reshape(len(running),
                                                            num_levels)
        slowdown = times / times[:, table.default_level, None] - 1.0
        within = slowdown <= self.preset
        chosen = np.where(within.any(axis=1), within.argmax(axis=1),
                          table.default_level)
        for index, level in zip(running, chosen.tolist()):
            levels[index] = level
        return levels
