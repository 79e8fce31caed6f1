"""Performance-counter schema (the paper's 47 counters)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpu.counters import (COUNTER_NAMES, DIRECT_FEATURE_NAMES,
                                INDIRECT_FEATURE_NAMES, NUM_COUNTERS,
                                PAPER_ALIASES, CounterSet, paper_category)


def test_exactly_47_counters():
    """The paper collects 47 performance counters (§III-B)."""
    assert NUM_COUNTERS == 47
    assert len(COUNTER_NAMES) == 47


def test_names_are_unique():
    assert len(set(COUNTER_NAMES)) == len(COUNTER_NAMES)


def test_paper_aliases_resolve():
    for alias, name in PAPER_ALIASES.items():
        assert name in COUNTER_NAMES, f"{alias} -> {name} missing"


def test_table1_counters_have_expected_categories():
    """Table I: IPC is instruction info, MH/MH\\L/L1CRM are stalls, PPC power."""
    assert paper_category("ipc") == "instruction"
    assert paper_category("stall_mem_hazard") == "stall"
    assert paper_category("stall_mem_hazard_nonload") == "stall"
    assert paper_category("l1_read_miss") == "stall"
    assert paper_category("power_per_core") == "power"


def test_direct_features_are_exactly_the_power_counters():
    assert set(DIRECT_FEATURE_NAMES) == {
        "power_per_core", "power_dynamic", "power_static", "energy_epoch"}
    assert set(DIRECT_FEATURE_NAMES) | set(INDIRECT_FEATURE_NAMES) == set(COUNTER_NAMES)


def test_unknown_counter_rejected():
    counters = CounterSet()
    with pytest.raises(SimulationError):
        counters["nonsense"] = 1.0
    with pytest.raises(SimulationError):
        _ = counters["nonsense"]
    with pytest.raises(SimulationError):
        CounterSet({"nonsense": 1.0})
    with pytest.raises(SimulationError):
        paper_category("nonsense")


def test_missing_counters_default_to_zero():
    counters = CounterSet()
    assert counters["ipc"] == 0.0


def test_as_vector_order_and_selection():
    counters = CounterSet()
    counters["ipc"] = 2.0
    counters["inst_total"] = 100.0
    full = counters.as_vector()
    assert full.shape == (47,)
    assert full[[COUNTER_NAMES.index("inst_total"),
                 COUNTER_NAMES.index("ipc")]].tolist() == [100.0, 2.0]


def test_average_across_clusters():
    a = CounterSet({"ipc": 2.0, "inst_total": 100.0})
    b = CounterSet({"ipc": 4.0, "inst_total": 300.0})
    mean = CounterSet.average([a, b])
    assert mean["ipc"] == pytest.approx(3.0)
    assert mean["inst_total"] == pytest.approx(200.0)


def test_accumulate_sums():
    a = CounterSet({"inst_total": 100.0})
    b = CounterSet({"inst_total": 300.0})
    assert CounterSet.accumulate([a, b])["inst_total"] == pytest.approx(400.0)


def test_average_empty_rejected():
    with pytest.raises(SimulationError):
        CounterSet.average([])


def test_copy_is_independent():
    a = CounterSet({"ipc": 2.0})
    b = a.copy()
    b["ipc"] = 9.0
    assert a["ipc"] == 2.0


def test_vector_is_float64():
    assert CounterSet().as_vector().dtype == np.float64
