"""Performance counters.

The paper's data-generation step collects **47 performance counters**
per feature-collection window, grouped into instruction metrics,
execution-stall metrics and power metrics (§III-B).  This module pins
down the exact counter schema the simulator produces and the feature
pipeline consumes.

Counter values are *raw per-epoch* quantities (counts, slot counts,
joules); normalisation (per-cycle, per-instruction) happens in
:mod:`repro.datagen.features` so the raw record stays faithful to what
a hardware counter file would contain.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

import numpy as np

from ..errors import SimulationError


class CounterCategory(Enum):
    """Fine-grained counter grouping used by the feature pipeline."""

    INSTRUCTION = "instruction"
    STALL = "stall"
    CACHE = "cache"
    OCCUPANCY = "occupancy"
    POWER = "power"


#: The full 47-counter schema: name -> fine-grained category.
COUNTER_SCHEMA: dict[str, CounterCategory] = {
    # --- instruction metrics (17) -----------------------------------
    "inst_total": CounterCategory.INSTRUCTION,
    "ipc": CounterCategory.INSTRUCTION,
    "inst_fp32": CounterCategory.INSTRUCTION,
    "inst_fp64": CounterCategory.INSTRUCTION,
    "inst_int": CounterCategory.INSTRUCTION,
    "inst_sfu": CounterCategory.INSTRUCTION,
    "inst_load": CounterCategory.INSTRUCTION,
    "inst_store": CounterCategory.INSTRUCTION,
    "inst_shared": CounterCategory.INSTRUCTION,
    "inst_branch": CounterCategory.INSTRUCTION,
    "inst_sync": CounterCategory.INSTRUCTION,
    "frac_fp32": CounterCategory.INSTRUCTION,
    "frac_fp64": CounterCategory.INSTRUCTION,
    "frac_mem": CounterCategory.INSTRUCTION,
    "frac_branch": CounterCategory.INSTRUCTION,
    "inst_per_warp": CounterCategory.INSTRUCTION,
    "issue_slots": CounterCategory.INSTRUCTION,
    # --- execution stall metrics (13) -------------------------------
    "stall_total": CounterCategory.STALL,
    "stall_mem_hazard": CounterCategory.STALL,
    "stall_mem_hazard_load": CounterCategory.STALL,
    "stall_mem_hazard_nonload": CounterCategory.STALL,
    "stall_control": CounterCategory.STALL,
    "stall_sync": CounterCategory.STALL,
    "stall_data": CounterCategory.STALL,
    "stall_idle": CounterCategory.STALL,
    "frac_stall_mem": CounterCategory.STALL,
    "frac_stall_control": CounterCategory.STALL,
    "avg_mem_latency": CounterCategory.STALL,
    "eligible_warps": CounterCategory.STALL,
    "warp_issue_efficiency": CounterCategory.STALL,
    # --- cache metrics (10) ------------------------------------------
    "l1_read_access": CounterCategory.CACHE,
    "l1_read_hit": CounterCategory.CACHE,
    "l1_read_miss": CounterCategory.CACHE,
    "l1_read_miss_rate": CounterCategory.CACHE,
    "l1_write_access": CounterCategory.CACHE,
    "l1_write_miss": CounterCategory.CACHE,
    "l2_access": CounterCategory.CACHE,
    "l2_miss": CounterCategory.CACHE,
    "l2_miss_rate": CounterCategory.CACHE,
    "dram_bytes": CounterCategory.CACHE,
    # --- occupancy metrics (3) ---------------------------------------
    "active_warps": CounterCategory.OCCUPANCY,
    "occupancy": CounterCategory.OCCUPANCY,
    "bandwidth_utilization": CounterCategory.OCCUPANCY,
    # --- power metrics (4) -------------------------------------------
    "power_per_core": CounterCategory.POWER,
    "power_dynamic": CounterCategory.POWER,
    "power_static": CounterCategory.POWER,
    "energy_epoch": CounterCategory.POWER,
}

#: Ordered counter names (the canonical vectorisation order).
COUNTER_NAMES: tuple[str, ...] = tuple(COUNTER_SCHEMA)

#: Number of counters — the paper collects 47 (§III-B).
NUM_COUNTERS = len(COUNTER_NAMES)

#: Paper Table I short names for the headline counters.
PAPER_ALIASES = {
    "IPC": "ipc",
    "PPC": "power_per_core",
    "MH": "stall_mem_hazard",
    "MH\\L": "stall_mem_hazard_nonload",
    "L1CRM": "l1_read_miss",
}

#: Counters that do not directly express power: the paper's "indirect
#: features"; the power counters are its "direct features" (§III-B).
INDIRECT_FEATURE_NAMES: tuple[str, ...] = tuple(
    name for name, cat in COUNTER_SCHEMA.items()
    if cat is not CounterCategory.POWER
)


def paper_category(name: str) -> str:
    """Map a counter to the paper's three-way categorisation.

    Instruction metrics absorb occupancy; execution-stall metrics absorb
    cache hit/miss counters ("Execution stall metrics cover control
    hazards, memory hazards, and cache hit/miss rates", §III-B).
    """
    category = COUNTER_SCHEMA.get(name)
    if category is None:
        raise SimulationError(f"unknown counter {name!r}")
    if category in (CounterCategory.INSTRUCTION, CounterCategory.OCCUPANCY):
        return "instruction"
    if category in (CounterCategory.STALL, CounterCategory.CACHE):
        return "stall"
    return "power"


#: Counter name -> vector slot, shared by every :class:`CounterSet`.
COUNTER_INDEX: dict[str, int] = {name: index
                                 for index, name in enumerate(COUNTER_NAMES)}


class CounterSet:
    """One epoch's worth of counters for one cluster.

    Behaves like a read-mostly mapping with a fixed schema.  Missing
    counters default to zero so partially instrumented code paths (the
    detailed model instruments fewer events) still produce valid sets.

    Values live in one float64 vector in :data:`COUNTER_NAMES` order, so
    vectorising a set (or a stack of sets) is a copy, not 47 dict
    lookups.  The mapping-style interface is unchanged.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None) -> None:
        self._values = np.zeros(NUM_COUNTERS, dtype=np.float64)
        if values is not None:
            unknown = set(values) - set(COUNTER_SCHEMA)
            if unknown:
                raise SimulationError(f"unknown counters: {sorted(unknown)}")
            for name, value in values.items():
                self._values[COUNTER_INDEX[name]] = float(value)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "CounterSet":
        """Wrap a full counter vector (adopted, not copied)."""
        if vector.shape != (NUM_COUNTERS,):
            raise SimulationError(
                f"counter vector must have shape ({NUM_COUNTERS},), "
                f"got {vector.shape}"
            )
        instance = cls.__new__(cls)
        instance._values = np.ascontiguousarray(vector, dtype=np.float64)
        return instance

    @property
    def values(self) -> dict[str, float]:
        """Dict view of the non-zero counters (compatibility helper)."""
        return {name: float(value)
                for name, value in zip(COUNTER_NAMES, self._values)
                if value != 0.0}

    def __getitem__(self, name: str) -> float:
        index = COUNTER_INDEX.get(name)
        if index is None:
            raise SimulationError(f"unknown counter {name!r}")
        return float(self._values[index])

    def __setitem__(self, name: str, value: float) -> None:
        index = COUNTER_INDEX.get(name)
        if index is None:
            raise SimulationError(f"unknown counter {name!r}")
        self._values[index] = float(value)

    def __contains__(self, name: str) -> bool:
        return name in COUNTER_SCHEMA

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterSet):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"CounterSet({self.values!r})"

    # A pickle carries the counter vector alone.
    def __getstate__(self) -> np.ndarray:
        return self._values

    def __setstate__(self, state: np.ndarray) -> None:
        self._values = np.asarray(state, dtype=np.float64)

    def as_vector(self) -> np.ndarray:
        """Every counter, in :data:`COUNTER_NAMES` order (a copy)."""
        return self._values.copy()

    def copy(self) -> "CounterSet":
        """Independent copy."""
        return CounterSet.from_vector(self._values.copy())

    @staticmethod
    def stack(sets: list["CounterSet"]) -> np.ndarray:
        """Stack many sets into an ``(n, NUM_COUNTERS)`` matrix."""
        if not sets:
            raise SimulationError("cannot stack an empty counter list")
        return np.array([s._values for s in sets])

    @staticmethod
    def average(sets: list["CounterSet"]) -> "CounterSet":
        """Element-wise mean across clusters (the per-GPU counter view)."""
        if not sets:
            raise SimulationError("cannot average an empty counter list")
        return CounterSet.from_vector(CounterSet.stack(sets).mean(axis=0))

    @staticmethod
    def accumulate(sets: list["CounterSet"]) -> "CounterSet":
        """Element-wise sum (use for additive counters only)."""
        if not sets:
            raise SimulationError("cannot accumulate an empty counter list")
        return CounterSet.from_vector(CounterSet.stack(sets).sum(axis=0))
