"""Content-addressed on-disk caching for campaign artefacts.

Data generation is the expensive offline stage (it simulates every
training kernel seven times per breakpoint), so examples, tests and
benchmarks share generated datasets through an on-disk cache keyed by
the generation parameters.  The key scheme is content-addressed: a
SHA-256 over the canonical JSON of everything that determines the
artefact — the :class:`ProtocolConfig` knobs, the architecture, the
kernel-suite fingerprint and the seed — so repeat invocations from the
CLI, ``examples/full_pipeline.py`` and the benchmarks hit disk instead
of re-simulating, while any parameter change lands on a fresh key.

The same helpers back the evaluation-grid cache in
:mod:`repro.evaluation.cache`.

A generation checkpoint sits next to its artefact as
``dvfs-<key>.ckpt`` and holds per-kernel chunks, so an interrupted
campaign resumes where it stopped.

Cache files are written through :func:`repro.store.atomic_write_bytes`
(temp + fsync + rename): a crash mid-save leaves the previous artefact
or the new one, never a truncated archive.  A corrupt file is still
tolerated on read — counted and regenerated — because the cache
predates the atomic writer and disks rot.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..parallel import CampaignCheckpoint, CampaignStats
from ..power.model import PowerModel
from .dataset import DVFSDataset
from .protocol import ProtocolConfig, generate_chunks_for_suite

logger = logging.getLogger(__name__)


def content_key(payload: dict) -> str:
    """SHA-256 fingerprint of a canonical-JSON payload (16 hex chars)."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
        "epoch_s": config.epoch_s,
        "segment_epochs": config.segment_epochs,
        "max_breakpoints": config.max_breakpoints_per_kernel,
        "augment": config.augment_feature_levels,
        "seed": config.seed,
    })


def cached_dataset(cache_dir: str | Path, kernels: list[KernelProfile],
                   arch: GPUArchConfig,
                   config: ProtocolConfig | None = None,
                   power_model: PowerModel | None = None, *,
                   workers: int | None = None,
                   stats: CampaignStats | None = None,
                   use_cache: bool = True, checkpoint: bool = False,
                   retries: int = 2,
                   timeout_s: float | None = None) -> DVFSDataset:
    """Load the dataset from cache, generating (and caching) on miss.

    ``workers`` fans generation and assembly out over a process pool;
    ``stats`` records stage timings and the ``dataset_cache_hit`` /
    ``dataset_cache_miss`` counters.  With ``use_cache=False`` any
    cached artefact is ignored and regenerated (the fresh result still
    refreshes the cache file).  A corrupt or truncated cache file is a
    cache *miss* (counted in ``dataset_cache_corrupt``), never a crash.
    ``checkpoint=True`` persists per-kernel progress next to the cache
    file (``dvfs-<key>.ckpt``) so an interrupted generation campaign
    resumes; ``retries``/``timeout_s`` tune the resilient fan-out.
    """
    config = config or ProtocolConfig()
    stats = stats if stats is not None else CampaignStats()
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = dataset_cache_key(kernels, arch, config)
    path = cache_dir / f"dvfs-{key}.npz"
    if use_cache and path.exists():
        try:
            with stats.stage("dataset_load", tasks=1):
                dataset = DVFSDataset.load(path)
        except Exception:
            # A truncated write or bit-rot must cost a regeneration,
            # not the campaign; the fresh save below overwrites it.
            logger.warning("corrupt dataset cache %s; regenerating",
                           path, exc_info=True)
            stats.count("dataset_cache_corrupt")
        else:
            stats.count("dataset_cache_hit")
            return dataset
    stats.count("dataset_cache_miss")
    ckpt = (CampaignCheckpoint(cache_dir / f"dvfs-{key}.ckpt", key=key)
            if checkpoint else None)
    chunks = generate_chunks_for_suite(kernels, arch, power_model, config,
                                       workers=workers, stats=stats,
                                       checkpoint=ckpt, retries=retries,
                                       timeout_s=timeout_s)
    dataset = DVFSDataset.from_breakpoint_chunks(chunks, workers=workers,
                                                 stats=stats)
    with stats.stage("dataset_save", tasks=1):
        dataset.save(path)
    return dataset
