"""Golden fixtures: SHA-256 digests of the simulator's modelled outputs.

Every result in this repository comes from one simulated epoch loop, so
its outputs are pinned here byte-for-byte: epoch-record streams of
policy-driven runs, a datagen breakpoint chunk, a Fig. 4 grid, a chaos
soak and the fleet / fleet-chaos / serve-chaos export payloads.  A
refactor of the engine must leave every digest unchanged; a deliberate
model change regenerates
``tests/fixtures/golden.json`` and the diff of that file is the
reviewed artefact.

Digests hash canonical float bytes, never pickles (pickle bytes change
across Python and numpy versions): float64 vectors contribute
``ndarray.tobytes()``, scalars ``float.hex()``.

Regenerate with::

    PYTHONPATH=src python tests/test_golden.py > tests/fixtures/golden.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cli import PAPER_FEATURES
from repro.core.combined import SSMDVFSModel
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.evaluation.experiments import run_fig4
from repro.evaluation.soak import SoakConfig, run_soak
from repro.gpu.arch import small_test_config, titan_x_config
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import (balanced_phase, compute_phase, divergent_phase,
                              memory_phase)
from repro.gpu.simulator import GPUSimulator
from repro.nn.mlp import MLP
from repro.power.breakdown import run_with_breakdown
from repro.workloads.suites import kernel_by_name, scale_kernel_to_duration

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "golden.json"


# ---------------------------------------------------------------------------
# Canonical digests
# ---------------------------------------------------------------------------

def _feed(h, obj) -> None:
    """Stream ``obj`` into ``h`` as unambiguous canonical bytes."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj, dtype=np.float64).tobytes()
        h.update(b"a%d:" % len(data) + data)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode() + b";")
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d:" % len(data) + data)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _record(r) -> list:
    return [r.index, r.start_time_s, r.duration_s,
            [int(level) for level in r.levels], r.counters.as_vector(),
            [c.as_vector() for c in r.cluster_counters], r.instructions,
            r.cluster_energy_j, r.uncore_energy_j, r.all_finished,
            r.finish_time_s]


def _run(result) -> list:
    return [result.policy_name, result.kernel_name, result.epochs,
            result.account.energy_j, result.account.time_s,
            [_record(r) for r in result.records]]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

class WigglePolicy:
    """Per-cluster levels that change every other epoch, so IVR
    transition dead time is charged on most epochs."""

    name = "wiggle"

    def reset(self, simulator) -> None:
        self.num_clusters = len(simulator.clusters)
        self.num_levels = simulator.arch.vf_table.num_levels

    def decide(self, record):
        step = record.index // 2
        return [(step + 2 * cid) % self.num_levels
                for cid in range(self.num_clusters)]


def _mix():
    return [
        KernelProfile("g.compute", [compute_phase("c", 60_000, warps=16)],
                      iterations=3, jitter=0.05),
        KernelProfile("g.memory",
                      [memory_phase("m", 60_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7),
                       divergent_phase("d", 30_000)],
                      iterations=2, jitter=0.07),
    ]


def _sim_single():
    kernel = KernelProfile("g.mixed",
                           [balanced_phase("b", 80_000),
                            compute_phase("c", 50_000, warps=20)],
                           iterations=3, jitter=0.06)
    return GPUSimulator(small_test_config(), kernel, seed=3)


def _sim_mix():
    return GPUSimulator(small_test_config(num_clusters=3), _mix(), seed=7)


def _sim_titan():
    arch = titan_x_config()
    kernel = scale_kernel_to_duration(kernel_by_name("rodinia.hotspot"),
                                      arch, 80e-6)
    return GPUSimulator(arch, kernel, seed=11)


def _synth_model(num_levels, hidden=16, seed=5):
    """A runnable SSMDVFS model with seeded random (fitted-scaler)
    weights: the grid needs real inference traffic, not a good policy."""
    rng = np.random.default_rng(seed)
    extractor = FeatureExtractor(PAPER_FEATURES, issue_width=4.0)
    width = extractor.width + 1
    scaler = FeatureScaler().fit(rng.uniform(0.0, 50.0, size=(256, width)))
    return SSMDVFSModel(
        decision_model=MLP([width, hidden, num_levels], rng=rng),
        calibrator_model=MLP([width, hidden, 1], rng=rng),
        feature_names=PAPER_FEATURES, issue_width=4.0,
        num_levels=num_levels,
        decision_scaler=scaler, calibrator_scaler=scaler,
    )


def sim_single():
    return _run(_sim_single().run(WigglePolicy()))


def sim_mix():
    return _run(_sim_mix().run(WigglePolicy()))


def sim_titan():
    return _run(_sim_titan().run(WigglePolicy()))


def breakdown():
    result, parts = run_with_breakdown(_sim_mix(), WigglePolicy())
    return [result.epochs, result.account.energy_j, result.account.time_s,
            [getattr(parts, f"{name}_j") for name in parts.COMPONENTS]]


def datagen_chunk():
    kernel = KernelProfile("g.grid",
                           [compute_phase("g", 30_000, warps=24),
                            memory_phase("h", 20_000, warps=40)],
                           iterations=40, jitter=0.05)
    config = ProtocolConfig(seed=5, max_breakpoints_per_kernel=2)
    chunk = generate_for_kernel(kernel, small_test_config(num_clusters=2),
                                config=config)
    return [[bp.kernel_name, bp.breakpoint_index,
             bp.feature_counters.as_vector(), bp.t0_s, bp.levels, bp.losses,
             bp.segment_losses, bp.window_instructions, bp.tf_s,
             [[level, counters.as_vector()]
              for level, counters in bp.feature_variants]]
            for bp in chunk]


def _fig4(fused: bool) -> list:
    arch = small_test_config()
    kernel = scale_kernel_to_duration(kernel_by_name("polybench.gesummv"),
                                      arch, 60e-6)
    result = run_fig4({"base": _synth_model(arch.vf_table.num_levels)},
                      [kernel], arch, presets=(0.10,), seed=3, workers=1,
                      fused=fused)
    return [[preset, [[r.policy_name, r.kernel_name, r.time_s, r.energy_j,
                       r.normalized_edp, r.normalized_latency, r.epochs]
                      for r in comparison.runs]]
            for preset, comparison in sorted(result.comparisons.items())]


def fig4_grid():
    return _fig4(fused=False)


def soak(directory: Path):
    """`run_soak` on one short kernel, crash-write torture included."""
    arch = small_test_config()
    kernel = scale_kernel_to_duration(kernel_by_name("polybench.gesummv"),
                                      arch, 150e-6)
    result = run_soak(_synth_model(arch.vf_table.num_levels), [kernel], arch,
                      directory / "store",
                      SoakConfig(seed=7, crash_write_trials=4))
    return result.to_payload()


def _cli_payload(argv: list[str], directory: Path) -> dict:
    export = directory / "export.json"
    assert cli.main(argv + ["--export", str(export)]) == 0
    return json.loads(export.read_text())


def fleet_smoke(directory: Path):
    """`make fleet-smoke` at tier-1 size."""
    return _cli_payload(["fleet", "--small", "--nodes", "4", "--jobs", "12",
                         "--trace", "burst", "--policy", "governor",
                         "--load", "0.7"], directory)


def serve_chaos_smoke(directory: Path):
    """`make serve-chaos-smoke` at tier-1 size."""
    return _cli_payload(["serve-chaos", "--small", "--streams", "2",
                         "--ticks", "80", "--trials", "1", "--seed", "7",
                         "--store", str(directory / "store")], directory)


def fleet_chaos_smoke(directory: Path):
    """`make fleet-chaos-smoke` at tier-1 size."""
    return _cli_payload(["fleet-chaos", "--small", "--nodes", "3", "--jobs",
                         "8", "--trials", "1", "--seed", "5",
                         "--crash-trials", "4",
                         "--store", str(directory / "store")], directory)


SCENARIOS = {
    "sim_single": sim_single,
    "sim_mix": sim_mix,
    "sim_titan": sim_titan,
    "breakdown": breakdown,
    "datagen_chunk": datagen_chunk,
    "fig4_grid": fig4_grid,
}
#: Scenarios that need a scratch directory (CLI exports, artifact stores).
DIR_SCENARIOS = {
    "soak": soak,
    "fleet_smoke": fleet_smoke,
    "fleet_chaos_smoke": fleet_chaos_smoke,
    "serve_chaos_smoke": serve_chaos_smoke,
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURES.read_text())


def test_fixture_names_match_scenarios(golden):
    assert sorted(golden) == sorted({**SCENARIOS, **DIR_SCENARIOS})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(golden, name):
    assert digest(SCENARIOS[name]()) == golden[name]


@pytest.mark.parametrize("name", sorted(DIR_SCENARIOS))
def test_golden_cli_payload(golden, name, tmp_path, capsys):
    assert digest(DIR_SCENARIOS[name](tmp_path)) == golden[name]


def test_golden_fig4_grid_fused(golden):
    """The fused campaign engine reproduces the serial grid's digest."""
    assert digest(_fig4(fused=True)) == golden["fig4_grid"]


def test_digest_is_canonical():
    """Dict order never matters; value bits and types always do."""
    assert digest({"a": 1.0, "b": [2]}) == digest({"b": [2], "a": 1.0})
    assert digest([0.1]) != digest([0.1 + 2 ** -55])
    assert digest([1]) != digest([1.0])
    assert digest(np.array([0.0])) != digest(np.array([-0.0]))


if __name__ == "__main__":
    import contextlib
    import sys
    import tempfile
    # The directory scenarios print their reports; keep stdout for the JSON.
    with contextlib.redirect_stdout(sys.stderr):
        digests = {name: digest(fn()) for name, fn in SCENARIOS.items()}
        for name, fn in DIR_SCENARIOS.items():
            with tempfile.TemporaryDirectory() as scratch:
                digests[name] = digest(fn(Path(scratch)))
    print(json.dumps(digests, indent=2, sort_keys=True))
