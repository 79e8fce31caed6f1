"""Ablation — why *microsecond-scale* DVFS (paper §I / §II premise).

The paper's motivation rests on integrated voltage regulators enabling
10 us epochs.  This bench quantifies the premise on our substrate: an
oracle policy (perfect per-phase decisions) steering phase-swinging
programs at epoch lengths from 10 us to 160 us.  Coarser epochs hold a
single operating point across phase changes, so EDP degrades as the
epoch grows — the headroom microsecond-scale DVFS exists to harvest.
"""

from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.core.policy import ModelOraclePolicy, StaticPolicy
from repro.evaluation.reporting import format_table
from repro.units import us

EPOCH_LENGTHS_US = (10.0, 20.0, 40.0, 80.0, 160.0)
PRESET = 0.10


def _swinging_kernel():
    """Compute/memory phases alternating every ~2 epochs at 10 us."""
    return KernelProfile(
        "abl.swing",
        [compute_phase("c", 90_000, warps=16),
         memory_phase("m", 80_000, warps=48, l1_miss=0.85, l2_miss=0.85)],
        iterations=20, jitter=0.05)


def test_epoch_length_ablation(arch, benchmark):
    kernel = _swinging_kernel()
    base = GPUSimulator(arch, kernel, seed=7, epoch_s=us(10)).run(
        StaticPolicy(arch.vf_table.default_level), keep_records=False)

    rows = []
    edps = []
    for epoch_us in EPOCH_LENGTHS_US:
        simulator = GPUSimulator(arch, kernel, seed=7, epoch_s=us(epoch_us))
        result = simulator.run(ModelOraclePolicy(PRESET), keep_records=False)
        edp = result.edp / base.edp
        latency = result.time_s / base.time_s
        edps.append(edp)
        rows.append([f"{epoch_us:.0f} us", round(edp, 4), round(latency, 4)])
    from _reporting import write_result
    write_result("ablation_epoch_length", format_table(
        ["Epoch length", "normalized EDP", "normalized latency"], rows,
        title="Oracle DVFS vs epoch length (phase-swinging program)"))

    # Finer epochs must not be worse, and the microsecond scale must
    # beat the coarsest (regulator-less) granularity clearly.
    assert edps[0] <= min(edps) + 1e-9 or edps[0] <= edps[-1]
    assert edps[0] < edps[-1] - 0.005

    # Benchmark: one coarse epoch step (the 160 us case dominates the
    # sweep's wall-clock cost).
    simulator = GPUSimulator(arch, kernel.with_iterations(10_000), seed=7,
                             epoch_s=us(160))
    benchmark(simulator.step_epoch)
