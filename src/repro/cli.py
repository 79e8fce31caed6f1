"""Command-line interface.

Exposes the offline pipeline and the evaluation harness as subcommands::

    repro-ssmdvfs suites                      # list modelled benchmarks
    repro-ssmdvfs datagen  --cache .cache     # generate/caches the dataset
    repro-ssmdvfs stats    --cache .cache     # dataset diagnostics
    repro-ssmdvfs train    --cache .cache --out artifacts
    repro-ssmdvfs evaluate --model artifacts/pruned --preset 0.10
    repro-ssmdvfs hardware --model artifacts/pruned
    repro-ssmdvfs faults   --mode all --rates 0 0.05 0.5
    repro-ssmdvfs soak     --small --store .cache/store
    repro-ssmdvfs store    --root .cache/store
    repro-ssmdvfs fleet    --nodes 128 --trace steady --policy pcstall

Every command is deterministic given ``--seed`` and runs fully offline,
and accepts only the flags it reads (:data:`FLAG_GROUPS`).  The long
campaigns (``datagen``, ``stats``, ``train``, ``evaluate``, ``fleet``)
take ``--checkpoint`` (resume after interruption), ``--retries`` and
``--task-timeout`` (resilient fan-out).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .datagen.cache import cached_dataset
from .datagen.protocol import ProtocolConfig
from .datagen.stats import analyze_dataset
from .gpu.arch import small_test_config, titan_x_config
from .nn.trainer import TrainConfig
from .core.combined import SSMDVFSModel
from .core.controller import SSMDVFSController
from .core.pipeline import PipelineConfig, build_from_dataset
from .evaluation.experiments import run_fig4, run_hardware, run_table1
from .evaluation.export import export_fig4_json
from .fleet import BUILTIN_TRACES, FLEET_POLICIES
from .parallel import CampaignStats, campaign_checkpoint, content_key
from .store import atomic_write_text, write_json
from .units import us
from .workloads.suites import (evaluation_suite, full_suite,
                               scale_kernel_to_duration, training_suite)

#: Table I feature set used when ``--features paper`` is selected.
PAPER_FEATURES = ("power_per_core", "ipc", "stall_mem_hazard",
                  "stall_mem_hazard_nonload", "l1_read_miss")


def _arch(args):
    return small_test_config() if args.small else titan_x_config()


def _protocol(args) -> ProtocolConfig:
    return ProtocolConfig(max_breakpoints_per_kernel=args.breakpoints,
                          seed=args.seed)


def _dataset(args, stats: CampaignStats | None = None):
    return cached_dataset(args.cache, training_suite(), _arch(args),
                          _protocol(args), workers=args.workers,
                          stats=stats, use_cache=not args.no_cache,
                          checkpoint=args.checkpoint, retries=args.retries,
                          timeout_s=args.task_timeout)


def _print_stats(args, stats: CampaignStats) -> None:
    if args.stats:
        print(stats.render())


def _report(args, result, stats: CampaignStats) -> None:
    """Print a result, export it when ``--export`` is set, then stats."""
    print(result.render())
    if args.export:
        print(f"exported -> {write_json(args.export, result.to_payload())}")
    _print_stats(args, stats)


def _load_model(args):
    return SSMDVFSModel.load(args.model) if args.model else None


def _fleet_policy(args, model):
    """The per-node policy factory and its display name."""
    from .fleet import policy_factory
    factory = policy_factory(args.policy, preset=args.preset,
                             model=model, level=args.level)
    name = (f"static-l{args.level}" if args.policy == "static"
            else args.policy)
    return factory, name


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_experiments(args) -> int:
    """List every reproducible paper artefact and extension."""
    from .evaluation.registry import render_registry
    print(render_registry(extensions=not args.paper_only))
    return 0


def cmd_report(args) -> int:
    """Assemble the markdown report from benchmark results."""
    from .evaluation.report import write_report
    path = write_report(args.results, args.out)
    print(f"report written -> {path}")
    return 0


def cmd_suites(args) -> int:
    """List the modelled benchmarks and the train/eval split."""
    training = {k.name for k in training_suite()}
    print(f"{'kernel':26s} {'suite':10s} {'phases':>6s} {'iters':>5s} "
          f"{'insts/cluster':>13s}  role")
    for kernel in full_suite():
        role = "train" if kernel.name in training else "eval/unseen"
        print(f"{kernel.name:26s} {kernel.suite:10s} "
              f"{len(kernel.phases):6d} {kernel.iterations:5d} "
              f"{kernel.total_instructions:13d}  {role}")
    return 0


def cmd_datagen(args) -> int:
    """Generate (or load) the cached training dataset."""
    stats = CampaignStats()
    dataset = _dataset(args, stats)
    print(f"dataset ready: {dataset.num_groups} breakpoints, "
          f"{dataset.num_breakpoints} records, "
          f"{dataset.num_samples} samples (cache: {args.cache})")
    _print_stats(args, stats)
    return 0


def cmd_stats(args) -> int:
    """Print dataset diagnostics."""
    stats = CampaignStats()
    report = analyze_dataset(_dataset(args, stats), preset=args.preset)
    print(report.render())
    _print_stats(args, stats)
    return 0


def cmd_train(args) -> int:
    """Run the offline build and save model artefacts."""
    arch = _arch(args)
    stats = CampaignStats()
    dataset = _dataset(args, stats)
    if args.features == "rfe":
        table1 = run_table1(dataset, arch, seed=args.seed, stats=stats)
        print(table1.render())
        features = table1.rfe.all_features
    else:
        features = PAPER_FEATURES
    config = PipelineConfig(
        feature_names=features,
        train=TrainConfig(epochs=args.epochs, patience=max(5, args.epochs // 8),
                          learning_rate=2e-3, seed=args.seed),
        seed=args.seed,
    )
    pipeline = build_from_dataset(dataset, arch, config,
                                  workers=args.workers, stats=stats)
    out = Path(args.out)
    for variant, model in pipeline.models.items():
        model.save(out / variant)
        meta = model.metadata
        print(f"{variant:10s} acc={meta['accuracy_pct']:.1f}% "
              f"mape={meta['mape_pct']:.2f}% "
              f"flops={meta['flops_sparse']} -> {out / variant}")
    _print_stats(args, stats)
    return 0


def cmd_evaluate(args) -> int:
    """Run the Fig. 4 comparison with a saved model."""
    arch = _arch(args)
    model = SSMDVFSModel.load(args.model)
    kernels = [scale_kernel_to_duration(k, arch, args.duration_us * 1e-6)
               for k in evaluation_suite()[:args.kernels]]
    stats = CampaignStats()
    result = run_fig4({"base": model}, kernels, arch,
                      presets=tuple(args.preset), seed=args.seed,
                      workers=args.workers, stats=stats,
                      cache_dir=args.cache,
                      use_cache=not args.no_cache,
                      checkpoint=args.checkpoint, retries=args.retries,
                      timeout_s=args.task_timeout,
                      fused=args.fused, fuse_width=args.fuse_width)
    print(result.render())
    if args.export:
        export_fig4_json(result, args.export)
        print(f"exported -> {args.export}")
    _print_stats(args, stats)
    return 0


def cmd_hardware(args) -> int:
    """Print the §V-D ASIC cost report for a saved model."""
    model = SSMDVFSModel.load(args.model)
    result = run_hardware(model, epoch_s=us(10), gpu_tdp_w=250.0)
    print(result.render())
    return 0


def cmd_run(args) -> int:
    """Drive one kernel with a saved model and print the outcome."""
    from .gpu.simulator import GPUSimulator
    from .core.guarded import GuardedController
    from .core.policy import StaticPolicy, policy_counters
    from .workloads.serialization import load_kernels
    from .workloads.suites import kernel_by_name
    arch = _arch(args)
    model = SSMDVFSModel.load(args.model)
    if args.kernel_file:
        kernel = load_kernels(args.kernel_file)[0]
    else:
        kernel = kernel_by_name(args.kernel)
    kernel = scale_kernel_to_duration(kernel, arch,
                                      args.duration_us * 1e-6)
    base = GPUSimulator(arch, kernel, seed=args.seed).run(
        StaticPolicy(arch.vf_table.default_level), keep_records=False)
    controller = SSMDVFSController(model, preset=args.preset)
    if args.guarded:
        controller = GuardedController(controller)
    run = GPUSimulator(arch, kernel, seed=args.seed).run(
        controller, keep_records=False)
    print(f"kernel {kernel.name}: baseline {base.time_s * 1e6:.1f} us / "
          f"{base.energy_j * 1e3:.2f} mJ; ssmdvfs {run.time_s * 1e6:.1f} us "
          f"/ {run.energy_j * 1e3:.2f} mJ; normalized EDP "
          f"{run.edp / base.edp:.3f}, latency {run.time_s / base.time_s:.3f}")
    if args.guarded and args.stats:
        counters = policy_counters(controller)
        for name in sorted(counters):
            print(f"  {name:30s} {counters[name]}")
    return 0


def cmd_faults(args) -> int:
    """Sweep injected fault rates and report preset-violation stats."""
    from functools import partial
    from .baselines.governor import UtilizationGovernor
    from .core.policy import ModelOraclePolicy
    from .faults import FAULT_MODES
    from .evaluation.robustness import fault_sweep
    arch = _arch(args)
    preset = args.preset
    factories = {
        "governor": UtilizationGovernor,
        "oracle": partial(ModelOraclePolicy, preset),
    }
    if args.model:
        model = SSMDVFSModel.load(args.model)
        factories["ssmdvfs"] = partial(SSMDVFSController, model, preset)
    kernels = [scale_kernel_to_duration(k, arch, args.duration_us * 1e-6)
               for k in evaluation_suite()[:args.kernels]]
    modes = list(FAULT_MODES) if args.mode == "all" else [args.mode]
    stats = CampaignStats()
    result = fault_sweep(factories, kernels, arch, preset, modes,
                         args.rates, guard=not args.no_guard,
                         slack=args.slack, seed=args.seed,
                         workers=args.workers, stats=stats,
                         fused=args.fused, fuse_width=args.fuse_width)
    print(result.render())
    print(f"total preset violations: {result.total_violations()}; "
          f"guard trips: {result.guard_engagements()}")
    if args.export:
        import json
        payload = {"preset": result.preset, "slack": result.slack,
                   "cells": [{**vars(c)} for c in result.cells]}
        atomic_write_text(args.export, json.dumps(payload, indent=2))
        print(f"exported -> {args.export}")
    _print_stats(args, stats)
    return 0


def _soak_selftrain(args, stats: CampaignStats):
    """Train a base pair for the soak when no ``--model`` was given.

    Uses duration-scaled training kernels and the shared dataset cache
    so ``soak-smoke`` stays self-contained *and* cheap on re-runs.
    """
    arch = _arch(args)
    kernels = [scale_kernel_to_duration(k, arch, args.duration_us * 1e-6)
               for k in training_suite()]
    dataset = cached_dataset(args.cache, kernels, arch, _protocol(args),
                             workers=args.workers, stats=stats,
                             use_cache=not args.no_cache)
    config = PipelineConfig(
        feature_names=PAPER_FEATURES,
        train=TrainConfig(epochs=60, patience=12, learning_rate=2e-3,
                          seed=args.seed),
        seed=args.seed,
    )
    pipeline = build_from_dataset(dataset, arch, config,
                                  variants=("base",),
                                  workers=args.workers, stats=stats)
    return pipeline.models["base"]


def cmd_soak(args) -> int:
    """Run the chaos soak; non-zero exit on any invariant violation."""
    from .evaluation.soak import SoakConfig, run_soak
    from .faults import FaultConfig
    arch = _arch(args)
    stats = CampaignStats()
    if args.model:
        model = SSMDVFSModel.load(args.model)
    else:
        model = _soak_selftrain(args, stats)
    # In-distribution kernels: the soak gauges the detect/heal loop,
    # not generalization, so a natural out-of-distribution drift must
    # not shadow the injected staleness episode.
    kernels = [scale_kernel_to_duration(k, arch, args.duration_us * 1e-6)
               for k in training_suite()[:args.kernels]]
    config = SoakConfig(
        preset=args.preset,
        seed=args.seed,
        faults=FaultConfig(counter_dropout=args.fault_rate,
                           counter_nan=args.fault_rate / 20,
                           counter_spike=args.fault_rate / 20),
        stale_sigma=args.stale_sigma,
        recovery_epochs=args.recovery_epochs,
        crash_write_trials=args.crash_trials,
    )
    result = run_soak(model, kernels, arch, args.store, config)
    _report(args, result, stats)
    return 0 if result.passed else 1


def cmd_fleet(args) -> int:
    """Replay an arrival trace over N simulated GPUs; report fleet SLOs."""
    from .fleet import (ClusterScheduler, ThermalConfig, TraceConfig,
                        build_trace)
    from .fleet.jobs import (BURST_SIZE, DIURNAL_PERIODS,
                             LATENCY_DEADLINE_FACTOR,
                             THROUGHPUT_DEADLINE_FACTOR)
    arch = _arch(args)
    stats = CampaignStats()
    model = _load_model(args)
    factory, policy_name = _fleet_policy(args, model)
    trace_config = TraceConfig(
        trace=args.trace, jobs=args.jobs, nodes=args.nodes, load=args.load,
        latency_fraction=args.latency_fraction,
        latency_duration_s=args.latency_us * 1e-6,
        throughput_duration_s=args.throughput_us * 1e-6, seed=args.seed)
    jobs = build_trace(arch, trace_config)
    checkpoint = None
    if args.checkpoint:
        checkpoint = campaign_checkpoint(args.cache, "fleet", content_key({
            "arch": arch.name, "clusters": arch.num_clusters,
            "policy": policy_name, "preset": args.preset,
            "model": repr(sorted(getattr(model, "metadata", {}).items())),
            # The trace-shape constants stay in the payload so existing
            # checkpoint names keep matching.
            "trace": {**asdict(trace_config),
                      "latency_deadline_factor": LATENCY_DEADLINE_FACTOR,
                      "throughput_deadline_factor":
                          THROUGHPUT_DEADLINE_FACTOR,
                      "burst_size": BURST_SIZE,
                      "diurnal_periods": DIURNAL_PERIODS,
                      "kernel_names": []},
            "seed": args.seed}))
    scheduler = ClusterScheduler(
        arch, factory, num_nodes=args.nodes, policy_name=policy_name,
        seed=args.seed, thermal=ThermalConfig(), workers=args.workers,
        stats=stats, checkpoint=checkpoint, retries=args.retries,
        timeout_s=args.task_timeout)
    result = scheduler.run(jobs, trace_name=args.trace)
    _report(args, result, stats)
    if args.slo_gate is not None:
        rate = result.slo_violation_rate()
        if rate > args.slo_gate:
            print(f"SLO gate FAILED: violation rate {rate:.4f} > "
                  f"gate {args.slo_gate:.4f}")
            return 1
        print(f"SLO gate ok: violation rate {rate:.4f} <= "
              f"gate {args.slo_gate:.4f}")
    return 0


def cmd_fleet_chaos(args) -> int:
    """Batter the fleet replay with randomized node-fault trains.

    Exits non-zero when any fleet invariant breaks: a job lost or
    double-counted, a non-byte-stable export, a node wedged in
    quarantine, a latency job shed by admission control, or a torn
    read out of the crash-write torture."""
    from .evaluation.fleet_chaos import FleetChaosConfig, run_fleet_chaos
    from .faults import NodeFaultConfig
    from .fleet import AdmissionConfig
    arch = _arch(args)
    stats = CampaignStats()
    factory, policy_name = _fleet_policy(args, _load_model(args))
    config = FleetChaosConfig(
        trace=args.trace, jobs=args.jobs, nodes=args.nodes,
        load=args.load, trials=args.trials, seed=args.seed,
        faults=NodeFaultConfig(
            crash_rate=args.crash_rate, hang_rate=args.hang_rate,
            thermal_rate=args.thermal_rate, storm_rate=args.storm_rate,
            seed=args.seed),
        admission=AdmissionConfig(enabled=not args.no_shedding,
                                  slack_s=args.shed_slack_us * 1e-6),
        crash_write_trials=args.crash_trials)
    result = run_fleet_chaos(arch, factory, config,
                             policy_name=policy_name,
                             workers=args.workers, store_root=args.store,
                             stats=stats)
    _report(args, result, stats)
    return 0 if result.passed else 1


def _serve_config(args):
    """Build a :class:`~repro.serve.ServeConfig` from parsed CLI args."""
    from .faults import ServeFaultConfig
    from .serve import ServeConfig
    faults = ServeFaultConfig(
        crash_rate=args.crash_rate, hang_rate=args.hang_rate,
        stall_rate=args.stall_rate, storm_rate=args.storm_rate,
        gap_rate=args.gap_rate, poison_rate=args.poison_rate,
        burst_rate=args.burst_rate, seed=args.seed)
    return ServeConfig(streams=args.streams, ticks=args.ticks,
                       num_workers=args.replicas,
                       queue_capacity=args.queue_capacity,
                       preset=args.preset,
                       online_enabled=not args.no_online,
                       faults=faults, seed=args.seed)


def cmd_serve(args) -> int:
    """Run one deterministic serving replay and report the accounting."""
    from .serve import ServingRuntime
    arch = _arch(args)
    stats = CampaignStats()
    runtime = ServingRuntime(arch, _serve_config(args),
                             model=_load_model(args), store_root=args.store,
                             workers=args.workers, stats=stats)
    result = runtime.run()
    _report(args, result, stats)
    return 0 if result.conserved else 1


def cmd_serve_chaos(args) -> int:
    """Certify the serving runtime against seeded fault trains.

    Exits non-zero when any serving invariant breaks: an invalid
    decision served, a request lost or double-counted, a worker outage
    past the recovery budget, a non-byte-stable replay, a
    deadline-class request shed under capacity, or a torn read out of
    the crash-write torture."""
    from .evaluation.serve_chaos import ServeChaosConfig, run_serve_chaos
    arch = _arch(args)
    stats = CampaignStats()
    config = ServeChaosConfig(
        trials=args.trials, seed=args.seed, serve=_serve_config(args),
        recovery_budget_ticks=args.recovery_budget,
        crash_write_trials=args.crash_trials)
    result = run_serve_chaos(arch, config, model=_load_model(args),
                             store_root=args.store, workers=args.workers,
                             stats=stats)
    _report(args, result, stats)
    return 0 if result.passed else 1


def cmd_store(args) -> int:
    """Inspect the artifact registry; optionally force a rollback."""
    from .errors import ArtifactCorrupt
    from .store import ArtifactStore
    store = ArtifactStore(args.root)
    if args.rollback:
        try:
            version = store.rollback(args.rollback)
        except ArtifactCorrupt as error:
            # Nothing trustworthy to roll back to is an operational
            # answer, not a crash: report and exit non-zero.
            print(f"rollback failed: {error}")
            return 1
        print(f"{args.rollback}: last_known_good -> v{version}")
    if args.verify:
        for name in (store.names() if args.verify == "all" else [args.verify]):
            for entry in store.versions(name):
                ok = store.verify(name, entry.version)
                print(f"{name} v{entry.version:06d} "
                      f"{'ok' if ok else 'CORRUPT'} ({entry.schema}, "
                      f"{entry.length} bytes)")
    print(store.render())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: Flags shared between subcommands, in named groups.  A subcommand
#: takes exactly the groups its ``cmd_*`` function reads (see
#: :func:`build_parser`); per-command defaults go through
#: ``set_defaults``.
FLAG_GROUPS: dict[str, tuple] = {
    "common": (
        ("--seed", dict(type=int, default=3)),
        ("--small", dict(action="store_true",
                         help="use the reduced 2-cluster test GPU")),
        ("--stats", dict(action="store_true",
                         help="print campaign timings and cache counters "
                              "(dataset/comparison disk caches, the "
                              "interval-model solve_cache_hit/miss pair, "
                              "and the train_models/train_epochs totals)")),
    ),
    "workers": (
        ("--workers", dict(type=int, default=1,
                           help="process-pool size for campaign fan-out "
                                "(1 = serial, 0 = all cores)")),
    ),
    "cache": (
        ("--cache", dict(default=".cache",
                         help="cache directory (datasets, evaluation "
                              "grids, campaign checkpoints)")),
    ),
    "no-cache": (
        ("--no-cache", dict(action="store_true",
                            help="ignore cached artefacts and regenerate "
                                 "(the fresh result still refreshes the "
                                 "cache)")),
    ),
    "dataset": (
        ("--breakpoints", dict(type=int, default=10)),
    ),
    "resilience": (
        ("--checkpoint", dict(action="store_true",
                              help="checkpoint campaign progress next to "
                                   "the cache file so interrupted runs "
                                   "resume")),
        ("--retries", dict(type=int, default=2,
                           help="pooled re-attempts per campaign task "
                                "before quarantine (crash/hang recovery)")),
        ("--task-timeout", dict(type=float, default=None,
                                help="stall watchdog in seconds: terminate "
                                     "workers when no task completes for "
                                     "this long")),
    ),
    "fused": (
        ("--fused", dict(action="store_true",
                         help="co-simulate the policy grid's runs in "
                              "lockstep groups through the fused engine "
                              "(bit-identical results; shared solve "
                              "caches, batched inference)")),
        ("--fuse-width", dict(type=int, default=8,
                              help="tasks co-simulated per fused group "
                                   "(with --fused)")),
    ),
    "model": (
        ("--model", dict(default=None,
                         help="saved SSMDVFS model pair (soak self-trains "
                              "one, serve runs the governor without it; "
                              "required for ssmdvfs* fleet policies)")),
    ),
    "saved-model": (
        ("--model", dict(required=True, help="saved SSMDVFS model pair")),
    ),
    "preset": (
        ("--preset", dict(type=float, default=0.10,
                          help="performance-loss preset")),
    ),
    "export": (
        ("--export", dict(default=None,
                          help="write the result payload as JSON")),
    ),
    "store": (
        ("--store", dict(default=None, help="artifact-store root")),
    ),
    "trials": (
        ("--trials", dict(type=int, default=3,
                          help="randomized fault trains to replay")),
    ),
    "crash-trials": (
        ("--crash-trials", dict(type=int, default=16,
                                help="sampled kill offsets of the "
                                     "crash-write torture phase")),
    ),
    "fleet": (
        ("--nodes", dict(type=int, default=16,
                         help="number of simulated GPUs in the fleet")),
        ("--jobs", dict(type=int, default=64,
                        help="jobs in the arrival trace (per trial)")),
        ("--trace", dict(default="steady", choices=BUILTIN_TRACES,
                         help="builtin arrival pattern")),
        ("--load", dict(type=float, default=0.7,
                        help="offered load as a fraction of fleet "
                             "capacity (>1 oversubscribes)")),
        ("--policy", dict(default="governor", choices=FLEET_POLICIES,
                          help="per-node DVFS policy")),
        ("--level", dict(type=int, default=None,
                         help="VF level for --policy static")),
    ),
    "serve": (
        ("--streams", dict(type=int, default=3,
                           help="simulated GPU telemetry streams")),
        ("--ticks", dict(type=int, default=240,
                         help="serving horizon in scheduler ticks")),
        ("--replicas", dict(type=int, default=2,
                            help="supervised controller workers (part of "
                                 "the scenario, unlike the phase-1 "
                                 "--workers)")),
        ("--queue-capacity", dict(type=int, default=12,
                                  help="bounded request-queue occupancy")),
        ("--no-online", dict(action="store_true",
                             help="disable gated online Calibrator "
                                  "updates")),
        ("--crash-rate", dict(type=float, default=1.5,
                              help="expected worker crashes per worker "
                                   "per run")),
        ("--hang-rate", dict(type=float, default=1.0,
                             help="expected worker hangs per worker per "
                                  "run")),
        ("--stall-rate", dict(type=float, default=1.0,
                              help="expected inference-stall episodes per "
                                   "run")),
        ("--storm-rate", dict(type=float, default=1.0,
                              help="expected telemetry storms per stream "
                                   "per run")),
        ("--gap-rate", dict(type=float, default=1.0,
                            help="expected telemetry gaps per stream per "
                                 "run")),
        ("--poison-rate", dict(type=float, default=1.0,
                               help="expected poisoned online updates per "
                                    "run")),
        ("--burst-rate", dict(type=float, default=1.0,
                              help="expected overload bursts per run")),
    ),
}

#: The flag groups of the campaign commands that build the dataset.
_DATASET_GROUPS = ("common", "workers", "cache", "no-cache", "dataset",
                   "resilience")


def _parents(*groups: str) -> list[argparse.ArgumentParser]:
    """Fresh argparse parent parsers holding the named flag groups.

    Fresh per subcommand because argparse shares a parent's actions
    with every child, so one child's ``set_defaults`` would change the
    others' defaults too.
    """
    parents = []
    for group in groups:
        parent = argparse.ArgumentParser(add_help=False)
        for flag, options in FLAG_GROUPS[group]:
            parent.add_argument(flag, **options)
        parents.append(parent)
    return parents


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ssmdvfs",
        description="SSMDVFS (DATE 2025) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, groups=()):
        p = sub.add_parser(name, help=summary, parents=_parents(*groups))
        p.set_defaults(func=func)
        return p

    command("suites", cmd_suites, "list modelled benchmarks")

    p = command("experiments", cmd_experiments,
                "list reproducible paper artefacts")
    p.add_argument("--paper-only", action="store_true")

    p = command("report", cmd_report,
                "assemble REPORT.md from benchmark results")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--out", default="REPORT.md")

    command("datagen", cmd_datagen, "generate/caches the dataset",
            _DATASET_GROUPS)

    command("stats", cmd_stats, "dataset diagnostics",
            _DATASET_GROUPS + ("preset",))

    p = command("train", cmd_train, "offline build; saves artefacts",
                _DATASET_GROUPS)
    p.add_argument("--out", default="artifacts")
    p.add_argument("--features", choices=("paper", "rfe"), default="paper")
    p.add_argument("--epochs", type=int, default=250)

    p = command("evaluate", cmd_evaluate, "Fig. 4 comparison",
                ("common", "workers", "cache", "no-cache", "resilience",
                 "fused", "saved-model", "export"))
    p.add_argument("--kernels", type=int, default=14)
    p.add_argument("--preset", type=float, nargs="+", default=[0.10],
                   help="performance-loss presets (one grid per preset)")
    p.add_argument("--duration-us", type=float, default=300.0)

    command("hardware", cmd_hardware, "ASIC cost report (Section V-D)",
            ("saved-model",))

    p = command("run", cmd_run, "drive one kernel with a saved model",
                ("common", "saved-model", "preset"))
    p.add_argument("--kernel", default="rodinia.hotspot")
    p.add_argument("--kernel-file", default=None,
                   help="JSON kernel description (overrides --kernel)")
    p.add_argument("--duration-us", type=float, default=300.0)
    p.add_argument("--guarded", action="store_true",
                   help="wrap the controller in the runtime guard "
                        "(sanitized counters, safe fallback)")

    p = command("faults", cmd_faults,
                "fault-injection sweep (robustness campaign)",
                ("common", "workers", "fused", "model", "preset", "export"))
    p.add_argument("--mode", default="all",
                   choices=("all", "dropout", "stuck", "nan", "spike",
                            "actuation"))
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.0, 0.05, 0.5])
    p.add_argument("--no-guard", action="store_true",
                   help="run policies bare (no GuardedController)")
    p.add_argument("--slack", type=float, default=0.05,
                   help="latency slack over the preset before a run "
                        "counts as a violation")
    p.add_argument("--kernels", type=int, default=3)
    p.add_argument("--duration-us", type=float, default=150.0)

    p = command("soak", cmd_soak,
                "chaos soak: faults + stale model + crash writes; exit 1 "
                "on invariant violation",
                ("common", "workers", "cache", "no-cache", "dataset",
                 "model", "preset", "export", "store", "crash-trials"))
    p.set_defaults(store=".cache/store", crash_trials=32)
    p.add_argument("--kernels", type=int, default=2)
    p.add_argument("--duration-us", type=float, default=1000.0)
    p.add_argument("--fault-rate", type=float, default=0.01,
                   help="sensor dropout probability (NaN and spike "
                        "rates scale down from it)")
    p.add_argument("--stale-sigma", type=float, default=3.0,
                   help="weight-perturbation scale of the mid-run "
                        "staleness injection")
    p.add_argument("--recovery-epochs", type=int, default=60,
                   help="epoch budget from staleness injection to "
                        "detection + rollback")

    p = command("fleet", cmd_fleet,
                "replay a job-arrival trace over N simulated GPUs under "
                "per-node DVFS controllers",
                ("common", "workers", "cache", "resilience", "model",
                 "preset", "export", "fleet"))
    p.add_argument("--latency-fraction", type=float, default=0.6,
                   help="fraction of jobs in the latency-sensitive class")
    p.add_argument("--latency-us", type=float, default=100.0,
                   help="nominal duration of latency-class jobs")
    p.add_argument("--throughput-us", type=float, default=400.0,
                   help="nominal duration of throughput-class jobs")
    p.add_argument("--slo-gate", type=float, default=None,
                   help="exit 1 when the overall SLO-violation rate "
                        "exceeds this fraction")

    p = command("fleet-chaos", cmd_fleet_chaos,
                "randomized node-fault trains over the fleet replay; exit "
                "1 on invariant violation",
                ("common", "workers", "model", "preset", "export", "store",
                 "trials", "crash-trials", "fleet"))
    p.set_defaults(store=".cache/chaos-store", nodes=4, jobs=24,
                   trace="burst", load=1.1)
    p.add_argument("--crash-rate", type=float, default=0.5,
                   help="expected node crashes per node per trial")
    p.add_argument("--hang-rate", type=float, default=0.3,
                   help="expected node hangs per node per trial")
    p.add_argument("--thermal-rate", type=float, default=0.4,
                   help="expected thermal-runaway events per node")
    p.add_argument("--storm-rate", type=float, default=0.4,
                   help="expected sensor-corruption storms per node")
    p.add_argument("--no-shedding", action="store_true",
                   help="disable admission control (every job is "
                        "eventually served or stranded)")
    p.add_argument("--shed-slack-us", type=float, default=0.0,
                   help="grace past the deadline before a throughput "
                        "job counts as unmeetable")

    command("serve", cmd_serve,
            "one deterministic serving replay of the always-on runtime",
            ("common", "workers", "model", "preset", "export", "store",
             "serve"))

    p = command("serve-chaos", cmd_serve_chaos,
                "seeded fault trains over the serving runtime; exit 1 on "
                "invariant violation",
                ("common", "workers", "model", "preset", "export", "store",
                 "trials", "crash-trials", "serve"))
    p.set_defaults(store=".cache/serve-chaos-store")
    p.add_argument("--recovery-budget", type=int, default=48,
                   help="max ticks any worker outage may take to "
                        "recover (invariant 3)")

    p = command("store", cmd_store,
                "inspect the artifact registry (operations runbook)")
    p.add_argument("--root", required=True,
                   help="registry root directory")
    p.add_argument("--rollback", default=None, metavar="NAME",
                   help="demote NAME's last_known_good pointer to the "
                        "previous verifying version")
    p.add_argument("--verify", default=None, metavar="NAME",
                   help="checksum-verify every version of NAME "
                        "('all' for the whole registry)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
