"""Content-addressed cache for evaluation campaigns.

A Fig. 4 campaign re-simulates every (policy, kernel) pair of the grid;
like dataset generation, the grid is deterministic given the policies,
kernel suite, architecture, preset, seed and epoch length, so repeat
invocations can load the :class:`ComparisonResult` from disk instead of
re-running tens of thousands of epochs.

Keys reuse the dataset cache's content-addressing scheme
(:func:`repro.datagen.cache.content_key`).  Policy *behaviour* is not
structurally hashable — a factory may close over a trained model — so
callers identify it with the policy names plus an optional
``cache_token`` (e.g. a hash of model metadata); change the token when
the models behind the same names change.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from ..datagen.cache import content_key, kernel_suite_fingerprint
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..parallel import CampaignCheckpoint, CampaignStats
from ..power.model import PowerModel
from ..store import atomic_write_text
from ..units import us
from .runner import ComparisonResult, compare_policies

logger = logging.getLogger(__name__)


def comparison_cache_key(policy_names: list[str],
                         kernels: list[KernelProfile], arch: GPUArchConfig,
                         preset: float, seed: int = 0,
                         epoch_s: float = us(10),
                         cache_token: str | None = None) -> str:
    """Stable fingerprint of one evaluation-grid request."""
    return content_key({
        **kernel_suite_fingerprint(kernels),
        "arch": arch.name,
        "clusters": arch.num_clusters,
        "policies": list(policy_names),
        "preset": preset,
        "seed": seed,
        "epoch_s": epoch_s,
        "token": cache_token or "",
    })


def cached_comparison(cache_dir: str | Path,
                      policy_factories: dict[str, callable],
                      kernels: list[KernelProfile], arch: GPUArchConfig,
                      preset: float,
                      power_model: PowerModel | None = None,
                      seed: int = 0, epoch_s: float = us(10), *,
                      cache_token: str | None = None,
                      workers: int | None = None,
                      stats: CampaignStats | None = None,
                      use_cache: bool = True, checkpoint: bool = False,
                      retries: int = 2,
                      timeout_s: float | None = None,
                      fused: bool = False,
                      fuse_width: int = 8) -> ComparisonResult:
    """Load a policy × kernel grid from cache, running it on miss.

    Counters ``comparison_cache_hit`` / ``comparison_cache_miss`` land
    in ``stats``.  With ``use_cache=False`` the grid is re-run and the
    cache file refreshed.  A corrupt or truncated cache file is a cache
    *miss* (counted in ``comparison_cache_corrupt``), never a crash.
    ``checkpoint=True`` persists per-kernel progress next to the cache
    file (``grid-<key>.kernel.ckpt``) so an interrupted campaign
    resumes; ``retries``/``timeout_s`` tune the resilient fan-out.

    ``fused``/``fuse_width`` run the grid through the fused campaign
    engine.  The *result* is bit-identical, so fused and serial runs
    share one cache file; checkpoints are **not** shared — a serial
    checkpoint stores per-kernel outcomes while a fused one stores
    per-group outcomes — so the checkpoint key and file are namespaced
    with the unit (``.kernel`` or ``.fused<width>``).  A checkpoint of
    any other shape, such as the per-run ``grid-<key>.ckpt`` of older
    versions, is never resumed.
    """
    stats = stats if stats is not None else CampaignStats()
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = comparison_cache_key(list(policy_factories), kernels, arch, preset,
                               seed=seed, epoch_s=epoch_s,
                               cache_token=cache_token)
    path = cache_dir / f"grid-{key}.json"
    if use_cache and path.exists():
        try:
            with stats.stage("grid_load", tasks=1):
                result = ComparisonResult.from_payload(
                    json.loads(path.read_text()))
        except Exception:
            logger.warning("corrupt evaluation cache %s; re-running",
                           path, exc_info=True)
            stats.count("comparison_cache_corrupt")
        else:
            stats.count("comparison_cache_hit")
            return result
    stats.count("comparison_cache_miss")
    ckpt_suffix = f".fused{fuse_width}" if fused else ".kernel"
    ckpt = (CampaignCheckpoint(cache_dir / f"grid-{key}{ckpt_suffix}.ckpt",
                               key=f"{key}{ckpt_suffix}")
            if checkpoint else None)
    result = compare_policies(policy_factories, kernels, arch, preset,
                              power_model, seed=seed, epoch_s=epoch_s,
                              workers=workers, stats=stats,
                              checkpoint=ckpt, retries=retries,
                              timeout_s=timeout_s,
                              fused=fused, fuse_width=fuse_width)
    # Atomic write: a kill mid-save must leave either the previous grid
    # or the new one, never a torn JSON the next run discards.
    atomic_write_text(path, json.dumps(result.to_payload()))
    return result
