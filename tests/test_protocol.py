"""Data-generation protocol (paper §III-A)."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.gpu.arch import small_test_config
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import compute_phase, memory_phase
from repro.gpu.simulator import DEFAULT_EPOCH_S, GPUSimulator
from repro.datagen.dataset import DVFSDataset
from repro.datagen.protocol import (SEGMENT_EPOCHS, ProtocolConfig,
                                    collect_breakpoint,
                                    generate_for_kernel, generate_for_suite,
                                    required_duration_s,
                                    scale_kernel_for_protocol)
from repro.power.model import PowerModel

ARCH = small_test_config(num_clusters=2)


def _kernel(compute=True, iterations=60):
    phase = (compute_phase("c", 30_000, warps=16) if compute
             else memory_phase("m", 30_000, l1_miss=0.8, l2_miss=0.8))
    return KernelProfile(name=f"proto.{'c' if compute else 'm'}",
                         phases=[phase], iterations=iterations, jitter=0.05)


CFG = ProtocolConfig(max_breakpoints_per_kernel=2, seed=1)


def test_config_validation():
    with pytest.raises(DatasetError):
        ProtocolConfig(max_breakpoints_per_kernel=0)


def test_generates_requested_breakpoints():
    breakpoints = generate_for_kernel(_kernel(), ARCH, config=CFG)
    assert len(breakpoints) == 2
    assert [bp.breakpoint_index for bp in breakpoints] == [0, 1]


def test_every_breakpoint_covers_all_levels():
    breakpoints = generate_for_kernel(_kernel(), ARCH, config=CFG)
    for bp in breakpoints:
        assert bp.levels == list(range(ARCH.vf_table.num_levels))
        assert len(bp.losses) == len(bp.levels)
        assert len(bp.window_instructions) == len(bp.levels)


def test_collect_breakpoint_standalone_matches_generation():
    """Without lanes or a reference segment, collect_breakpoint builds
    both itself and reproduces the generation loop's first breakpoint."""
    first = generate_for_kernel(_kernel(), ARCH, config=CFG)[0]
    simulator = GPUSimulator(ARCH, _kernel(), PowerModel(), seed=CFG.seed)
    simulator.set_all_levels(ARCH.vf_table.default_level)
    alone = collect_breakpoint(simulator, 0)
    assert alone.tf_s == first.tf_s
    assert alone.losses == first.losses
    assert alone.window_instructions == first.window_instructions
    assert np.array_equal(alone.feature_counters.as_vector(),
                          first.feature_counters.as_vector())
    # Left at the end of the reference segment.
    assert simulator.epoch_index == SEGMENT_EPOCHS


def test_default_level_loss_is_zero():
    breakpoints = generate_for_kernel(_kernel(), ARCH, config=CFG)
    default = ARCH.vf_table.default_level
    for bp in breakpoints:
        assert bp.losses[default] == pytest.approx(0.0, abs=1e-9)


def test_compute_kernel_losses_decrease_with_level():
    """For a compute-bound kernel, slower points cost more."""
    breakpoints = generate_for_kernel(_kernel(compute=True), ARCH, config=CFG)
    for bp in breakpoints:
        assert bp.losses[0] > bp.losses[3] > bp.losses[5] - 1e-9
        assert bp.losses[0] > 0.2  # min level hurts a compute kernel


def test_memory_kernel_is_insensitive():
    breakpoints = generate_for_kernel(_kernel(compute=False), ARCH, config=CFG)
    for bp in breakpoints:
        assert bp.losses[0] < 0.12


def test_window_instructions_scale_with_level_on_compute():
    breakpoints = generate_for_kernel(_kernel(compute=True), ARCH, config=CFG)
    for bp in breakpoints:
        assert bp.window_instructions[0] < bp.window_instructions[5]


def test_segment_losses_are_window_losses_scaled():
    breakpoints = generate_for_kernel(_kernel(), ARCH, config=CFG)
    for bp in breakpoints:
        for window, segment in zip(bp.losses, bp.segment_losses):
            # loss_window = excess / epoch; loss_segment = excess / t0.
            assert window == pytest.approx(
                segment * bp.t0_s / DEFAULT_EPOCH_S, rel=1e-6, abs=1e-9)


def test_minimal_level_for_preset_monotone_in_preset():
    dataset = DVFSDataset.from_breakpoints(
        generate_for_kernel(_kernel(compute=True), ARCH, config=CFG))
    for record in range(dataset.num_breakpoints):
        assert (dataset.minimal_level_for_record(record, 0.05)
                >= dataset.minimal_level_for_record(record, 0.20))


def test_required_duration_and_scaling():
    config = ProtocolConfig(max_breakpoints_per_kernel=4)
    needed = required_duration_s(config)
    assert needed == pytest.approx((4 + 3) * 10 * DEFAULT_EPOCH_S)
    short = _kernel(iterations=2)
    scaled = scale_kernel_for_protocol(short, ARCH, config)
    assert scaled.iterations > short.iterations


def test_generate_for_suite_autoscales_short_kernels():
    short = _kernel(iterations=2)
    breakpoints = generate_for_suite([short], ARCH, config=CFG)
    assert len(breakpoints) == CFG.max_breakpoints_per_kernel


def test_generate_for_suite_rejects_empty():
    with pytest.raises(DatasetError):
        generate_for_suite([], ARCH, config=CFG)
