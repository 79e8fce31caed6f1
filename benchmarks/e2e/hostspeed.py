"""Host-speed probes: how fast this machine runs right now.

The benchmark runs on shared hosts.  Other tenants slow a process down
by up to about 40 %, in bursts of seconds and in stretches of minutes,
and no statistic over one run's repetitions removes the minute-long
stretches.  So the measuring processes also run two fixed probes that
no change to the program can touch: an interpreter-bound loop over
small arrays and dicts, and a memory-bound sum and gather over a 32 MB
array (the two ways the workloads slow down under contention).

The host speed of a set of readings is the geometric mean over the two
probes of each probe's fastest rates, divided by the probe's rate on
the reference host.  A rate divided by it, or a duration multiplied by
it, reads as it would have on the reference host at rest.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Probe rates (iterations per second) of the reference host, a
#: 2-vCPU Intel Xeon virtual machine, at rest.
REFERENCE = {"interpreter": 4400.0, "memory": 450.0}
PROBE_S = 0.05
FASTEST = 3

_MEMORY: dict[str, np.ndarray] = {}


def _interpreter(seconds: float) -> float:
    a, b, table = np.arange(24.0), np.ones(24), {}
    count, start = 0, time.perf_counter()
    while True:
        for i in range(200):
            c = a * 1.0001 + b
            table[i % 17] = float(c[i % 24]) + i
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return count / elapsed


def _memory(seconds: float) -> float:
    if not _MEMORY:
        _MEMORY["data"] = np.random.default_rng(0).random(4_000_000)
        _MEMORY["index"] = np.random.default_rng(1).integers(
            0, 4_000_000, 200_000)
    data, index = _MEMORY["data"], _MEMORY["index"]
    count, start = 0, time.perf_counter()
    while True:
        data.sum()
        data[index].sum()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return count / elapsed


def probe() -> dict[str, float]:
    """One reading of both probes (about 0.1 s)."""
    return {"interpreter": _interpreter(PROBE_S), "memory": _memory(PROBE_S)}


def fastest(values: list[float]) -> float:
    """Mean of the :data:`FASTEST` largest values (all of them when
    fewer): the rate of a run's least disturbed moments, less sensitive
    to one lucky reading than the maximum."""
    top = sorted(values)[-FASTEST:]
    return sum(top) / len(top) if top else float("nan")


def speed(readings: list[dict[str, float]]) -> float:
    """Host speed relative to the reference host at rest (1.0) from
    probe readings: the geometric mean over the probes of
    :func:`fastest` reading over the reference rate."""
    return math.prod(fastest([r[name] for r in readings]) / reference
                     for name, reference in REFERENCE.items()
                     ) ** (1 / len(REFERENCE))
