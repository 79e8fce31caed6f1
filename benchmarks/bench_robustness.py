"""Robustness — counter noise and seed variance (extension).

Real 10 µs counter windows are noisy; the paper evaluates a single
simulator configuration.  This bench (a) injects multiplicative
measurement noise into the counters each controller observes and
tracks how EDP/latency degrade, and (b) sweeps simulator seeds to put
an error bar on the Fig. 4 aggregates.
"""

import numpy as np

from repro.baselines.pcstall import PCSTALLPolicy
from repro.core.controller import SSMDVFSController
from repro.core.policy import StaticPolicy
from repro.evaluation.reporting import format_table
from repro.evaluation.robustness import NoisyCountersPolicy, seed_sweep
from repro.gpu.simulator import GPUSimulator
from repro.store import write_json

PRESET = 0.10
NOISE_LEVELS = (0.0, 0.05, 0.10, 0.20)


def test_counter_noise_robustness(pipeline, eval_kernels, arch, benchmark):
    model = pipeline.model("pruned")
    kernels = eval_kernels[:4]
    rows = []
    summary = {}
    for sigma in NOISE_LEVELS:
        for name, factory in (
            ("ssmdvfs", lambda s=sigma: NoisyCountersPolicy(
                SSMDVFSController(model, PRESET), s, seed=21)),
            ("pcstall", lambda s=sigma: NoisyCountersPolicy(
                PCSTALLPolicy(PRESET), s, seed=21)),
        ):
            edps, lats = [], []
            for kernel in kernels:
                base = GPUSimulator(arch, kernel, seed=17).run(
                    StaticPolicy(arch.vf_table.default_level),
                    keep_records=False)
                run = GPUSimulator(arch, kernel, seed=17).run(
                    factory(), keep_records=False)
                edps.append(run.edp / base.edp)
                lats.append(run.time_s / base.time_s)
            summary[(name, sigma)] = (float(np.mean(edps)),
                                      float(np.mean(lats)))
            rows.append([name, sigma, round(summary[(name, sigma)][0], 3),
                         round(summary[(name, sigma)][1], 3)])
    from _reporting import write_result
    write_result("robustness_noise", format_table(
        ["Policy", "counter noise", "mean EDP", "mean latency"], rows,
        title=f"Counter-noise robustness, preset {PRESET:.0%}"))

    for name in ("ssmdvfs", "pcstall"):
        clean_edp, clean_lat = summary[(name, 0.0)]
        noisy_edp, noisy_lat = summary[(name, 0.20)]
        # Graceful degradation: bounded latency blow-up even at 20 %
        # counter noise, and EDP still below (or near) baseline.
        assert noisy_lat < 1.0 + 3 * PRESET
        assert noisy_edp < 1.05
        assert noisy_lat >= clean_lat - 0.05  # noise cannot *help* much

    # Seed sweep: error bars on the aggregate (3 seeds x 4 kernels).
    sweep = seed_sweep(
        {"ssmdvfs": lambda: SSMDVFSController(model, PRESET),
         "pcstall": lambda: PCSTALLPolicy(PRESET)},
        kernels, arch, PRESET, seeds=[5, 6, 7])
    write_result("robustness_seeds", sweep.render())
    assert sweep.std_edp["ssmdvfs"] < 0.05  # aggregates are stable
    assert sweep.mean_edp["ssmdvfs"] < 1.0

    # Benchmark: one noisy-counter perturbation of a full record.
    controller = NoisyCountersPolicy(
        SSMDVFSController(model, PRESET), 0.1, seed=3)
    simulator = GPUSimulator(arch, kernels[0], seed=3)
    controller.reset(simulator)
    record = simulator.step_epoch()
    benchmark(lambda: controller._perturb(record.counters))


def test_chaos_soak_gate(pipeline, arch, tmp_path, benchmark):
    """Full-scale chaos soak: detect, heal, and stay within the preset.

    The paper-scale pruned pair is registered as last-known-good, then
    driven through sensor faults, a mid-run stale-model injection and
    crash-write torture.  Fault rates are scaled to the 24-cluster
    architecture (the per-cluster/per-counter knobs compound with
    cluster count) so the epoch-level anomaly pressure matches the
    small-arch soak.  Any invariant violation fails the gate; the JSON
    payload lands in results/ for the report.
    """
    from repro.evaluation.soak import SOAK_ARTIFACT, SoakConfig, run_soak
    from repro.faults import FaultConfig
    from repro.store import ArtifactStore
    from repro.workloads.suites import (scale_kernel_to_duration,
                                        training_suite)
    from _reporting import RESULTS_DIR, write_result

    model = pipeline.model("pruned")
    kernels = [scale_kernel_to_duration(kernel, arch, 1000e-6)
               for kernel in training_suite()[:2]]
    config = SoakConfig(
        seed=17,
        faults=FaultConfig(counter_dropout=1e-3, counter_nan=5e-5,
                           counter_spike=5e-5),
        crash_write_trials=16,
    )
    result = run_soak(model, kernels, arch, tmp_path / "store", config)
    write_result("robustness_soak", result.render())
    write_json(RESULTS_DIR / "BENCH_robustness_soak.json",
               result.to_payload())
    assert result.passed, result.violations
    for record in result.records:
        assert record.healed_by == "hot_swap"

    # Benchmark: one verified read of the pair from the registry.
    store = ArtifactStore(tmp_path / "store")
    benchmark(lambda: store.get(SOAK_ARTIFACT))


def test_fleet_resilience_gate(pipeline, arch, tmp_path, benchmark):
    """Fleet leg: recovery and shed-rate gates under a fixed fault train.

    Guarded per-node SSMDVFS controllers serve a bursty trace while a
    seeded crash/hang/thermal/storm train hits the nodes.  The chaos
    harness asserts conservation, byte-stable replay and shed
    discipline; on top of that this gate pins fleet-level outcomes:
    every quarantined node is re-admitted within its outage budget and
    admission control sheds at most a third of the stream.  The guard
    and drift counters from the per-node controllers must surface in
    the exported campaign aggregate.
    """
    from repro.evaluation.fleet_chaos import (FleetChaosConfig,
                                              run_fleet_chaos)
    from repro.faults import NodeFaultConfig
    from repro.fleet import policy_factory as fleet_policy
    from _reporting import RESULTS_DIR, write_result

    model = pipeline.model("pruned")
    factory = fleet_policy("ssmdvfs-guarded", preset=PRESET, model=model)
    config = FleetChaosConfig(
        trace="burst", jobs=16, nodes=4, load=1.0, trials=2,
        determinism_trials=1, seed=29,
        faults=NodeFaultConfig(crash_rate=0.6, hang_rate=0.4,
                               thermal_rate=0.4, storm_rate=0.4, seed=29),
        crash_write_trials=8)
    result = run_fleet_chaos(arch, factory, config,
                             policy_name="ssmdvfs-guarded",
                             store_root=tmp_path / "store")
    write_result("fleet_resilience", result.render())
    write_json(RESULTS_DIR / "BENCH_fleet_resilience.json",
               result.to_payload())
    assert result.passed, result.violations

    # Recovery gate: timed outages resolve; no node ends wedged.
    for trial in result.trials:
        assert trial.still_quarantined == 0
        assert trial.recoveries >= trial.quarantines
    # Shed gate: load shedding stays a safety valve, not the service.
    assert max(t.shed_rate for t in result.trials) <= 1 / 3
    # Jobs are conserved in every trial and the first replay is
    # byte-stable across worker counts.
    assert all(t.conserved for t in result.trials)
    assert result.trials[0].byte_stable is True
    # Per-node guarded controllers surface their policy counters into
    # the campaign aggregate (guard_*/drift_* appear once they trip;
    # the calibration channel reports even when clean).
    from repro.fleet.tracker import POLICY_COUNTER_PREFIXES
    assert any(name.startswith(POLICY_COUNTER_PREFIXES)
               for name in result.counters)

    # Benchmark: seeded fault-train construction (the chaos hot path
    # outside the replay itself).
    from repro.faults import NodeFaultPlan
    benchmark(lambda: NodeFaultPlan.build(config.faults, config.nodes,
                                          1e-3))


def test_serve_resilience_gate(pipeline, arch, tmp_path, benchmark):
    """Serving leg: recovery-time and shed-discipline gates under chaos.

    The paper-scale pruned pair serves decisions through the always-on
    runtime while a seeded crash/hang/stall/storm/gap/poison/burst
    train hits the workers and telemetry streams.  The serve-chaos
    harness asserts the five serving invariants (valid decisions,
    request conservation, bounded recovery, byte-stable replay,
    deadline-shed discipline); on top of that this gate pins the
    service-level outcomes: every worker outage heals within the
    recovery budget, shedding stays a pressure valve (at most a third
    of the stream, zero deadline-class sheds), and the degraded /
    fallback decision paths plus the circuit-breaker and online-
    calibration channels surface in the exported counter aggregate.
    """
    from repro.evaluation.serve_chaos import (CHAOS_FAULTS,
                                              ServeChaosConfig,
                                              run_serve_chaos)
    from repro.serve import ServeConfig
    from _reporting import RESULTS_DIR, write_result

    model = pipeline.model("pruned")
    config = ServeChaosConfig(
        trials=2, determinism_trials=1, seed=29,
        serve=ServeConfig(streams=2, ticks=160, num_workers=2,
                          preset=PRESET, faults=CHAOS_FAULTS),
        crash_write_trials=8)
    result = run_serve_chaos(arch, config, model=model,
                             store_root=tmp_path / "store")
    write_result("serve_resilience", result.render())
    write_json(RESULTS_DIR / "BENCH_serve_resilience.json",
               result.to_payload())
    assert result.passed, result.violations

    for trial in result.trials:
        # Recovery gate: every outage resolves inside the budget and
        # no worker ends the run quarantined or mid-restart.
        assert trial.max_recovery_ticks <= config.recovery_budget_ticks
        assert trial.unrecovered == 0
        # Shed gate: deadline-class traffic is never shed while the
        # queue has room, and total shedding stays a safety valve.
        assert trial.bad_deadline_sheds == 0
        assert trial.invalid_decisions == 0
        assert trial.conserved
        assert trial.shed <= trial.submitted / 3
    assert result.trials[0].byte_stable is True

    # The degraded/fallback serving paths and the breaker + online-
    # calibration channels must surface in the campaign aggregate.
    assert result.counters.get("serve_requests_submitted", 0) > 0
    assert any(name.startswith("breaker_") for name in result.counters)
    assert any(name.startswith("online_") for name in result.counters)

    # Benchmark: seeded serve-fault-train construction (the chaos hot
    # path outside the replay itself).
    from repro.faults import ServeFaultPlan
    from repro.serve.runtime import DRAIN_TICKS
    serve = config.serve
    benchmark(lambda: ServeFaultPlan.build(
        serve.faults, serve.num_workers, serve.streams,
        serve.ticks + DRAIN_TICKS))
