"""Shared fixtures for the experiment benchmarks.

Each benchmark regenerates one of the paper's tables or figures at the
full GTX-Titan-X scale.  The expensive artefacts — the training dataset
(cached on disk under ``.cache/``) and the trained model pipeline — are
built once per session and shared.

Run with::

    pytest benchmarks/ --benchmark-only

The first run generates the dataset (~2-4 minutes); later runs load it
from the cache.
"""

from pathlib import Path

import pytest

from repro.cli import PAPER_FEATURES
from repro.gpu.arch import titan_x_config
from repro.datagen.cache import cached_dataset
from repro.datagen.protocol import ProtocolConfig
from repro.nn.trainer import TrainConfig
from repro.core.pipeline import PipelineConfig, build_from_dataset
from repro.workloads.suites import (evaluation_suite,
                                    scale_kernel_to_duration, training_suite)

CACHE_DIR = Path(__file__).resolve().parent.parent / ".cache"


@pytest.fixture(scope="session")
def arch():
    """GTX Titan X configuration (24 clusters, 6 V/f points)."""
    return titan_x_config()


@pytest.fixture(scope="session")
def dataset(arch):
    """Full-scale training dataset (18 kernels x 10 breakpoints)."""
    protocol = ProtocolConfig(max_breakpoints_per_kernel=10, seed=3)
    return cached_dataset(CACHE_DIR, training_suite(), arch, protocol)


@pytest.fixture(scope="session")
def pipeline(dataset, arch):
    """Paper-scale pipeline build: base + compressed + pruned pairs."""
    config = PipelineConfig(
        feature_names=PAPER_FEATURES,
        train=TrainConfig(epochs=250, patience=30, learning_rate=2e-3,
                          seed=3),
        finetune=TrainConfig(epochs=80, patience=15, learning_rate=5e-4,
                             seed=3),
        seed=3,
    )
    return build_from_dataset(dataset, arch, config)


@pytest.fixture(scope="session")
def eval_kernels(arch):
    """The ~300 us evaluation programs of §V.A (>50 % unseen)."""
    return [scale_kernel_to_duration(kernel, arch, 300e-6)
            for kernel in evaluation_suite()]
