"""PCSTALL and F-LEMMA comparator policies."""

import pytest

from repro.errors import PolicyError
from repro.baselines import flemma
from repro.baselines.flemma import FLEMMAPolicy
from repro.baselines.pcstall import PCSTALLPolicy
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.power.model import PowerModel
from repro.core.policy import StaticPolicy


def _kernel(kind="memory", iterations=25):
    phase = (memory_phase("m", 120_000, warps=48, l1_miss=0.9, l2_miss=0.9)
             if kind == "memory" else compute_phase("c", 120_000, warps=16))
    return KernelProfile(f"bl.{kind}", [phase], iterations=iterations,
                         jitter=0.05)


def _run(policy, arch, kernel, seed=3):
    sim = GPUSimulator(arch, kernel, PowerModel(), seed=seed)
    return sim.run(policy, keep_records=True)


# ---------------------------------------------------------------------------
# PCSTALL
# ---------------------------------------------------------------------------

def test_pcstall_validation():
    with pytest.raises(PolicyError):
        PCSTALLPolicy(-0.1)


def test_pcstall_drops_frequency_on_memory_kernel(small_arch):
    result = _run(PCSTALLPolicy(0.10), small_arch, _kernel("memory"))
    levels = [lvl for r in result.records for lvl in r.levels]
    assert min(levels) <= 2


def test_pcstall_stays_high_on_compute_kernel(small_arch):
    kernel = _kernel("compute")
    base = _run(StaticPolicy(small_arch.vf_table.default_level),
                small_arch, kernel)
    result = _run(PCSTALLPolicy(0.10), small_arch, kernel)
    assert result.time_s / base.time_s < 1.15


def test_pcstall_saves_energy_on_memory_kernel(small_arch):
    kernel = _kernel("memory")
    base = _run(StaticPolicy(small_arch.vf_table.default_level),
                small_arch, kernel)
    result = _run(PCSTALLPolicy(0.10), small_arch, kernel)
    assert result.energy_j < base.energy_j
    assert result.time_s < base.time_s * 1.12


def test_pcstall_loss_model_sanity():
    policy = PCSTALLPolicy(0.10)
    # Fully memory-bound (stall fraction 1): no predicted loss anywhere.
    assert policy._predict_loss(1.0, 1165e6, 683e6, 1165e6) == pytest.approx(0.0)
    # Fully compute-bound: loss equals the frequency ratio minus one.
    assert policy._predict_loss(0.0, 1165e6, 683e6, 1165e6) == pytest.approx(
        1165 / 683 - 1)
    # In between: monotone in the stall fraction.
    losses = [policy._predict_loss(s, 1165e6, 683e6, 1165e6)
              for s in (0.0, 0.3, 0.6, 0.9)]
    assert losses == sorted(losses, reverse=True)


# ---------------------------------------------------------------------------
# F-LEMMA
# ---------------------------------------------------------------------------

def test_flemma_validation():
    with pytest.raises(PolicyError):
        FLEMMAPolicy(-0.1)


def test_flemma_warms_up_at_default(small_arch):
    policy = FLEMMAPolicy(0.10, seed=1)
    result = _run(policy, small_arch, _kernel("memory"))
    # Epoch 0 runs at default (reset), decisions 1..warmup stay default.
    for record in result.records[:4]:
        assert set(record.levels) == {small_arch.vf_table.default_level}


def test_flemma_explores_after_warmup(small_arch, monkeypatch):
    monkeypatch.setattr(flemma, "WARMUP_EPOCHS", 3)
    policy = FLEMMAPolicy(0.10, seed=1)
    result = _run(policy, small_arch, _kernel("memory", iterations=40))
    levels = {lvl for r in result.records[4:] for lvl in r.levels}
    assert len(levels) > 1  # exploration moved the operating point


def test_flemma_is_seed_deterministic(small_arch):
    runs = []
    for _ in range(2):
        policy = FLEMMAPolicy(0.10, seed=7)
        runs.append(_run(policy, small_arch, _kernel("memory")).energy_j)
    assert runs[0] == pytest.approx(runs[1])


def test_flemma_underperforms_on_short_programs(small_arch, small_pipeline):
    """The paper's key claim about RL: exploration overhead dominates on
    microsecond-scale programs, so F-LEMMA trails SSMDVFS on EDP."""
    from repro.core.controller import SSMDVFSController
    kernel = _kernel("memory", iterations=25)
    base = _run(StaticPolicy(small_arch.vf_table.default_level), small_arch,
                kernel)
    flemma = _run(FLEMMAPolicy(0.10, seed=2), small_arch, kernel)
    ssm = _run(SSMDVFSController(small_pipeline.model("base"), 0.10),
               small_arch, kernel)
    edp_flemma = flemma.edp / base.edp
    edp_ssm = ssm.edp / base.edp
    assert edp_ssm < edp_flemma + 0.02
