"""The four end-to-end workloads: inputs, one run, checks, fingerprint.

Each workload is a fixed-size batch job over a public entry point on
its default code path, run with ``workers=1``.  A run is split into
:func:`prepare` (imports, inputs and the verified fixture model — the
benchmark's set-up) and :func:`execute` (the timed call).

The seed varies what a rerun of the same scenario varies: simulation
noise, training initialisation, per-job and per-stream seeds and the
fleet fault train.  The kernel list, the fleet arrival trace and the
serving fault train are fixed per workload, because they set how much
work a run does; a seed-dependent amount of work would read as a rate
change that is not the code's.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixtures" / "ssmdvfs-pruned"
FIXTURE_SUMS = HERE / "fixtures" / "ssmdvfs-pruned.sha256"

#: Seed of the parts of a scenario that set its amount of work.
SCENARIO_SEED = 3


class CheckFailed(Exception):
    """A workload's outputs or inputs failed the benchmark's checks."""


@dataclass(frozen=True)
class Size:
    """How big one repetition of each workload is."""

    arch: str = "titan_x"
    build_kernels: int = 3
    build_breakpoints: int = 2
    train_epochs: int = 60
    finetune_epochs: int = 20
    fig4_kernels: tuple[str, ...] = ("polybench.correlation",)
    fig4_duration_us: float = 300.0
    fig4_presets: tuple[float, ...] = (0.05, 0.10, 0.20)
    fleet_jobs: int = 8
    fleet_nodes: int = 16
    serve_ticks: int = 400


#: The benchmark's size: one repetition takes 0.5-1.5 s on one core, so
#: a run holds many and some of them miss the host's slow spells.
FULL = Size()
#: A reduced size on ``small_test_config()`` for the test suite.
SMALL = Size(arch="small", build_kernels=3, build_breakpoints=1,
             train_epochs=8, finetune_epochs=3,
             fig4_kernels=("polybench.gesummv",), fig4_duration_us=60.0,
             fig4_presets=(0.10,), fleet_jobs=6, fleet_nodes=2,
             serve_ticks=120)
SIZES = {"full": FULL, "small": SMALL}

#: What one unit of each workload's rate counts.
ITEMS = {
    "offline-build": "dataset samples",
    "fig4-grid": "simulated epochs",
    "fleet-trace": "jobs",
    "serve-replay": "requests",
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_fixture(directory: Path = FIXTURE_DIR):
    """Load the fixture model after checking each file's SHA-256 against
    the ``sha256sum``-format manifest :data:`FIXTURE_SUMS`."""
    from repro.core.combined import SSMDVFSModel
    for line in FIXTURE_SUMS.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        path = directory / name
        if not path.is_file() or sha256_file(path) != digest:
            raise CheckFailed(f"fixture file {name} does not match "
                              f"{FIXTURE_SUMS.name}")
    model = SSMDVFSModel.load(directory)
    if not model.verify():
        raise CheckFailed("fixture model has non-finite weights")
    return model


def _arch(size: Size):
    from repro.gpu.arch import small_test_config, titan_x_config
    return titan_x_config() if size.arch == "titan_x" else small_test_config()


def digest(payload) -> str:
    """SHA-256 of a canonical JSON rendering (floats kept exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up: everything a run needs before the timed call.
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, size: Size = FULL,
            fixture_dir: Path = FIXTURE_DIR,
            scratch_root: Path | None = None) -> dict:
    """Imports, inputs and (except for ``offline-build``) the fixture.

    Returns the inputs with ``run(stats, scratch)``, the call that
    :func:`execute` times; ``scratch`` is a fresh empty directory under
    ``scratch_root`` (the system default when None).
    """
    arch = _arch(size)
    inputs = {"workload": workload, "size": size,
              "scratch_root": scratch_root}
    if workload == "offline-build":
        from repro.core.pipeline import PipelineConfig, build_ssmdvfs
        from repro.datagen.protocol import ProtocolConfig
        from repro.nn.trainer import TrainConfig
        from repro.workloads.suites import training_suite
        # Early stopping would make the amount of training depend on the
        # seed; patience equal to the epoch budget keeps it fixed.
        config = PipelineConfig(
            protocol=ProtocolConfig(
                max_breakpoints_per_kernel=size.build_breakpoints,
                seed=seed),
            train=TrainConfig(epochs=size.train_epochs,
                              patience=size.train_epochs,
                              learning_rate=2e-3),
            finetune=TrainConfig(epochs=size.finetune_epochs,
                                 patience=size.finetune_epochs,
                                 learning_rate=5e-4),
            seed=seed)
        kernels = training_suite()[:size.build_kernels]

        def run(stats, scratch):
            return build_ssmdvfs(arch, kernels, config, workers=1,
                                 stats=stats)
        return {**inputs, "run": run}
    model = load_fixture(fixture_dir)
    if workload == "fig4-grid":
        from repro.evaluation.experiments import run_fig4
        from repro.workloads.suites import (kernel_by_name,
                                            scale_kernel_to_duration)
        kernels = [scale_kernel_to_duration(kernel_by_name(name), arch,
                                            size.fig4_duration_us * 1e-6)
                   for name in size.fig4_kernels]

        def run(stats, scratch):
            return run_fig4({"base": model}, kernels, arch,
                            presets=size.fig4_presets, seed=seed, workers=1,
                            stats=stats)
        return {**inputs, "run": run}
    if workload == "fleet-trace":
        from repro.faults import NodeFaultConfig, NodeFaultPlan
        from repro.fleet import (AdmissionConfig, ClusterScheduler,
                                 ThermalConfig, TraceConfig, build_trace,
                                 policy_factory)
        jobs = build_trace(arch, TraceConfig(
            trace="burst", jobs=size.fleet_jobs, nodes=size.fleet_nodes,
            load=1.0, seed=SCENARIO_SEED))
        horizon_s = max(job.arrival_s for job in jobs) + 2e-3
        plan = NodeFaultPlan.build(
            NodeFaultConfig(crash_rate=0.5, hang_rate=0.3,
                            thermal_rate=0.4, storm_rate=0.4, seed=seed),
            size.fleet_nodes, horizon_s)

        def run(stats, scratch):
            scheduler = ClusterScheduler(
                arch, policy_factory("ssmdvfs-guarded", model=model),
                num_nodes=size.fleet_nodes, policy_name="ssmdvfs-guarded",
                seed=seed, thermal=ThermalConfig(), workers=1, stats=stats,
                fault_plan=plan, admission=AdmissionConfig())
            return scheduler.run(jobs, trace_name="burst")
        return {**inputs, "jobs": len(jobs), "run": run}
    if workload == "serve-replay":
        from repro.faults import ServeFaultConfig
        from repro.serve import ServeConfig, ServingRuntime
        # The `repro-ssmdvfs serve` default fault rates.
        faults = ServeFaultConfig(
            crash_rate=1.5, hang_rate=1.0, stall_rate=1.0, storm_rate=1.0,
            gap_rate=1.0, poison_rate=1.0, burst_rate=1.0,
            seed=SCENARIO_SEED)
        config = ServeConfig(streams=3, ticks=size.serve_ticks,
                             faults=faults, seed=seed)

        def run(stats, scratch):
            return ServingRuntime(arch, config, model=model,
                                  store_root=scratch, workers=1,
                                  stats=stats).run()
        return {**inputs, "run": run}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# The timed call.
# ---------------------------------------------------------------------------


def execute(inputs: dict, call=None) -> dict:
    """Run the workload once, timed, and check its outputs.

    ``call(fn, *args)`` invokes the entry point (the tracer's root span
    hooks in there).  Returns ``unit_s`` (host seconds of the call),
    ``items`` (the rate's numerator), ``fingerprint`` (SHA-256 of the
    modelled outputs), ``modelled`` (the printed statistics) and
    ``stages`` (campaign stage timings, s).
    """
    from repro.parallel import CampaignStats
    call = call or (lambda fn, *args: fn(*args))
    stats = CampaignStats()
    with tempfile.TemporaryDirectory(dir=inputs["scratch_root"]) as scratch:
        start = time.perf_counter()
        result = call(inputs["run"], stats, scratch)
        unit_s = time.perf_counter() - start
    workload = inputs["workload"]
    if workload == "offline-build":
        outcome = _offline_build(result)
    elif workload == "fig4-grid":
        outcome = _fig4_grid(result, inputs["size"])
    elif workload == "fleet-trace":
        outcome = _fleet_trace(result, inputs["jobs"])
    else:
        outcome = _serve_replay(result)
    outcome["unit_s"] = unit_s
    outcome["stages"] = {}
    for stage in stats.stages:
        outcome["stages"][stage.name] = (
            outcome["stages"].get(stage.name, 0.0) + stage.seconds)
    return outcome


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _offline_build(result) -> dict:
    model = result.model("pruned")
    _require(model.verify(), "pruned model has non-finite weights")
    samples = result.dataset.num_samples
    _require(samples > 0, "datagen produced no samples")
    accuracy = {variant: round(pair.accuracy_pct, 6)
                for variant, pair in sorted(result.pairs.items())}
    _require(all(math.isfinite(a) for a in accuracy.values()),
             "non-finite accuracy")
    features = list(result.feature_names)
    return {
        "items": samples,
        "fingerprint": hashlib.sha256(
            model.to_bytes() + json.dumps(features).encode()).hexdigest(),
        "modelled": {"samples": samples, "features": features,
                     "accuracy_pct": accuracy},
        "model": model,
    }


def _fig4_grid(result, size: Size) -> dict:
    rows, epochs = [], 0
    policies = set()
    for preset, comparison in sorted(result.comparisons.items()):
        for run in comparison.runs:
            _require(math.isfinite(run.normalized_edp)
                     and run.normalized_edp > 0
                     and math.isfinite(run.normalized_latency)
                     and run.epochs > 0,
                     f"bad run {run.policy_name}/{run.kernel_name}")
            rows.append([preset, run.policy_name, run.kernel_name,
                         run.normalized_edp, run.normalized_latency,
                         run.epochs])
            epochs += run.epochs
            policies.add(run.policy_name)
    expected = len(policies) * len(size.fig4_kernels) * len(size.fig4_presets)
    _require(len(policies) == 5 and len(rows) == expected,
             f"expected 5 policies and {expected} runs, got {len(rows)}")
    mean_edp = {policy: result.mean_over_presets("edp", policy)
                for policy in sorted(policies)}
    return {"items": epochs, "fingerprint": digest(rows),
            "modelled": {"runs": len(rows), "epochs": epochs,
                         "mean_edp": mean_edp}}


def _fleet_trace(result, jobs: int) -> dict:
    _require(result.conserved, "fleet replay lost or double-counted a job")
    _require(result.jobs_submitted == jobs, "fleet submitted count is off")
    return {"items": jobs, "fingerprint": digest(result.to_payload()),
            "modelled": {"completed": len(result.outcomes),
                         "shed": len(result.shed),
                         "conserved": result.conserved,
                         "slo_violation_rate": result.slo_violation_rate(),
                         "epochs": sum(o.epochs for o in result.outcomes)}}


def _serve_replay(result) -> dict:
    _require(result.conserved, "serving replay lost or double-counted a "
                               "request")
    _require(result.served > 0, "nothing was served")
    levels = (result.min_level_served, result.max_level_served)
    _require(0 <= levels[0] <= levels[1] < result.num_levels,
             f"served levels {levels} out of range")
    return {"items": result.submitted,
            "fingerprint": digest(result.to_payload()),
            "modelled": {"submitted": result.submitted,
                         "served": result.served, "shed": result.shed,
                         "failed": result.failed,
                         "conserved": result.conserved}}
