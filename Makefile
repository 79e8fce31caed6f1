# Developer / CI entry points.
#
# `test-fast` is the tier-1 gate: the full unit suite minus tests marked
# `slow` (per-cycle simulation windows).  `bench-smoke` exercises the
# simulator-throughput and parallel-campaign benchmarks once without
# timing repetition, so the process-pool fan-out path runs in CI without
# slowing the gate down.  It also runs the epoch-engine perf gate
# (batched-inference speedup, self-timed with perf_counter) and writes
# benchmarks/results/BENCH_epoch_engine.json, which CI uploads as an
# artifact.  `train-bench-smoke` is the matching
# gate for the offline training pipeline (batched RFE scoring, sweep
# cache, population replicas); it writes
# benchmarks/results/BENCH_training_pipeline.json.
# `fused-bench-smoke` is the fused-campaign perf gate: it asserts the
# fused engine reproduces the serial grid byte-for-byte and beats the
# process-pool fan-out >= 3x, and writes
# benchmarks/results/BENCH_fused_sim.json.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow bench-smoke train-bench-smoke \
	fused-bench-smoke bench faults-smoke soak-smoke \
	fleet-smoke fleet-chaos-smoke serve-chaos-smoke

test-fast:
	$(PYTHON) -m pytest -q -m "not slow"

# Fault-injection smoke: a small sweep over every fault mode (including
# 100% sensor dropout, which must engage the guard's fallback) plus the
# resilience-focused test modules.  Zero unhandled exceptions expected.
# The sweep runs twice — serial and fused — because faulty/guarded
# wrappers take the engine's solo-decision path, which must survive the
# same fault menu.
faults-smoke:
	$(PYTHON) -m repro.cli faults --small --mode all --rates 0 1.0 \
		--kernels 1 --duration-us 60 --stats
	$(PYTHON) -m repro.cli faults --small --mode all --rates 0 1.0 \
		--kernels 1 --duration-us 60 --stats --fused
	$(PYTHON) -m pytest -q tests/test_faults.py tests/test_parallel.py

# Chaos-soak smoke: self-trains a small pair through the dataset cache,
# registers it as last-known-good, then soaks it under 1% sensor faults
# with a mid-run stale-model injection and crash-write torture.  The
# CLI exits non-zero on any invariant violation (NaN decision, latency
# over preset+slack, unhealed drift, torn read), which fails the job.
# Deliberately outside the tier-1 `test-fast` gate.
soak-smoke:
	$(PYTHON) -m repro.cli soak --small --breakpoints 4 --kernels 2 \
		--cache .cache --store .cache/store --stats \
		--export benchmarks/results/SOAK_smoke.json

# Fleet smoke: replay a bursty two-class trace over 16 simulated GPUs
# under per-node governors and gate on the SLO-violation rate — the CLI
# exits non-zero when more than 5% of jobs miss their deadline, so a
# scheduler regression (EDF ordering, placement, replay accounting)
# fails the job.  The JSON export is byte-stable per seed and uploaded
# by CI as an artifact.  Outside the tier-1 `test-fast` gate.
fleet-smoke:
	$(PYTHON) -m repro.cli fleet --small --nodes 16 --jobs 48 \
		--trace burst --policy governor --load 0.7 --stats \
		--slo-gate 0.05 --export benchmarks/results/FLEET_smoke.json
	$(PYTHON) -m pytest -q tests/test_fleet.py

# Fleet-chaos smoke: randomized node-fault trains (crash, hang, thermal
# runaway, sensor storms) against the fleet replay, with admission
# control on.  The CLI exits non-zero if any fleet invariant breaks —
# a job lost or double-counted, a seed whose export is not byte-stable
# across worker counts, a node wedged in quarantine, or a latency-class
# job admission-shed.  Crash-write torture hits the exported payload
# through the artifact store.  Outside the tier-1 `test-fast` gate.
fleet-chaos-smoke:
	$(PYTHON) -m repro.cli fleet-chaos --small --nodes 4 --jobs 16 \
		--trials 2 --seed 7 --store .cache/chaos-store --stats \
		--export benchmarks/results/FLEET_chaos_smoke.json
	$(PYTHON) -m pytest -q tests/test_fleet_resilience.py

# Serve-chaos smoke: seeded fault trains (worker crashes/hangs,
# inference stalls, telemetry storms/gaps, poisoned updates, overload
# bursts) against the always-on serving runtime.  The CLI exits
# non-zero if any serving invariant breaks — an invalid decision
# served, a request lost or double-counted, a worker outage past the
# recovery budget, a non-byte-stable replay, or a deadline-class
# request shed under capacity.  The exported payload is atomic and
# byte-stable per seed; CI uploads it as an artifact.  Outside the
# tier-1 `test-fast` gate.
serve-chaos-smoke:
	$(PYTHON) -m repro.cli serve-chaos --small --streams 2 --ticks 160 \
		--trials 2 --seed 7 --store .cache/serve-chaos-store --stats \
		--export benchmarks/results/SERVE_chaos_smoke.json
	$(PYTHON) -m pytest -q tests/test_serve.py tests/test_serve_chaos.py

test:
	$(PYTHON) -m pytest -q

test-slow:
	$(PYTHON) -m pytest -q -m slow

bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_sim_throughput.py --benchmark-disable

train-bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_training_pipeline.py --benchmark-disable

fused-bench-smoke:
	$(PYTHON) -m pytest -q tests/test_fused.py
	$(PYTHON) -m pytest -q \
		benchmarks/bench_sim_throughput.py::test_fused_campaign_speedup \
		--benchmark-disable

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
