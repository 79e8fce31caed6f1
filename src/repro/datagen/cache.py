"""Content-addressed on-disk cache of generated datasets.

Data generation is the expensive offline stage (it simulates every
training kernel seven times per breakpoint), so examples, tests and
benchmarks share generated datasets through an on-disk cache keyed by
the generation parameters: a :func:`~repro.parallel.content_key` over
the :class:`ProtocolConfig` knobs, the architecture, the kernel-suite
fingerprint and the seed.  Repeat invocations from the CLI,
``examples/full_pipeline.py`` and the benchmarks hit disk instead of
re-simulating, while any parameter change lands on a fresh key.  The
load-or-build logic is :func:`repro.parallel.cached`; the generation
checkpoint sits next to the artefact as ``dvfs-<key>.ckpt``.
"""

from __future__ import annotations

from pathlib import Path

from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..gpu.simulator import DEFAULT_EPOCH_S
from ..parallel import (CampaignStats, cached, campaign_checkpoint,
                        content_key)
from .dataset import DVFSDataset
from .protocol import SEGMENT_EPOCHS, ProtocolConfig, generate_for_suite


def kernel_suite_fingerprint(kernels: list[KernelProfile]) -> dict:
    """The parts of a kernel suite that determine simulation output."""
    return {
        "kernels": sorted(k.name for k in kernels),
        "iterations": {k.name: k.iterations for k in kernels},
        "instructions": {k.name: k.total_instructions for k in kernels},
    }


def dataset_cache_key(kernels: list[KernelProfile], arch: GPUArchConfig,
                      config: ProtocolConfig) -> str:
    """Stable fingerprint of a generation request."""
    return content_key({
        **kernel_suite_fingerprint(kernels),
        "arch": arch.name,
        "clusters": arch.num_clusters,
        # The epoch length, the segment length and the always-on
        # feature-window level augmentation are constants; they stay in
        # the payload so existing cache keys keep matching.
        "epoch_s": DEFAULT_EPOCH_S,
        "segment_epochs": SEGMENT_EPOCHS,
        "max_breakpoints": config.max_breakpoints_per_kernel,
        "augment": True,
        "seed": config.seed,
    })


def cached_dataset(cache_dir: str | Path, kernels: list[KernelProfile],
                   arch: GPUArchConfig,
                   config: ProtocolConfig | None = None, *,
                   workers: int | None = None,
                   stats: CampaignStats | None = None,
                   use_cache: bool = True, checkpoint: bool = False,
                   retries: int = 2,
                   timeout_s: float | None = None) -> DVFSDataset:
    """Load the dataset from cache, generating (and caching) on miss.

    Caches through :func:`repro.parallel.cached` as ``dvfs-<key>.npz``
    with the ``dataset`` counters and stages.  ``workers`` fans
    generation out over a process pool, one task per kernel;
    ``checkpoint=True`` persists per-kernel progress in
    ``dvfs-<key>.ckpt`` so an interrupted generation campaign resumes;
    ``retries``/``timeout_s`` tune the resilient fan-out.
    """
    config = config or ProtocolConfig()
    stats = stats if stats is not None else CampaignStats()
    key = dataset_cache_key(kernels, arch, config)

    def build() -> DVFSDataset:
        ckpt = (campaign_checkpoint(cache_dir, "dvfs", key)
                if checkpoint else None)
        return DVFSDataset.from_breakpoints(generate_for_suite(
            kernels, arch, config, workers=workers, stats=stats,
            checkpoint=ckpt, retries=retries, timeout_s=timeout_s))

    return cached(Path(cache_dir) / f"dvfs-{key}.npz", "dataset", stats,
                  build, load=DVFSDataset.load,
                  save=lambda path, dataset: dataset.save(path),
                  use_cache=use_cache)
