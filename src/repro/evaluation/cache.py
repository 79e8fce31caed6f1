"""Content-addressed cache for evaluation campaigns.

A Fig. 4 campaign re-simulates every (policy, kernel) pair of the grid;
like dataset generation, the grid is deterministic given the policies,
kernel suite, architecture, preset, seed and epoch length, so repeat
invocations load the :class:`ComparisonResult` from ``grid-<key>.json``
through :func:`repro.parallel.cached` instead of re-running tens of
thousands of epochs.

Policy *behaviour* is not structurally hashable — a factory may close
over a trained model — so callers identify it with the policy names
plus an optional ``cache_token`` (e.g. a hash of model metadata);
change the token when the models behind the same names change.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..datagen.cache import kernel_suite_fingerprint
from ..gpu.arch import GPUArchConfig
from ..gpu.kernels import KernelProfile
from ..parallel import (CampaignStats, cached, campaign_checkpoint,
                        content_key)
from ..store import atomic_write_text
from ..units import us
from .runner import ComparisonResult, ReplaySet, compare_policies


def comparison_cache_key(policy_names: list[str],
                         kernels: list[KernelProfile], arch: GPUArchConfig,
                         preset: float, seed: int = 0,
                         cache_token: str | None = None) -> str:
    """Stable fingerprint of one evaluation-grid request."""
    return content_key({
        **kernel_suite_fingerprint(kernels),
        "arch": arch.name,
        "clusters": arch.num_clusters,
        "policies": list(policy_names),
        "preset": preset,
        "seed": seed,
        # Every grid runs 10 µs epochs; the constant stays in the
        # payload so existing cache keys keep matching.
        "epoch_s": us(10),
        "token": cache_token or "",
    })


def cached_comparison(cache_dir: str | Path,
                      policy_factories: dict[str, callable],
                      kernels: list[KernelProfile], arch: GPUArchConfig,
                      preset: float, seed: int = 0, *,
                      cache_token: str | None = None,
                      workers: int | None = None,
                      stats: CampaignStats | None = None,
                      use_cache: bool = True, checkpoint: bool = False,
                      retries: int = 2,
                      timeout_s: float | None = None,
                      fused: bool = False,
                      fuse_width: int = 8,
                      replay: ReplaySet | None = None) -> ComparisonResult:
    """Load a policy × kernel grid from cache, running it on miss.

    Caches through :func:`repro.parallel.cached` as ``grid-<key>.json``
    with the ``comparison`` counters and stages.  ``checkpoint=True``
    persists per-kernel progress next to the cache file
    (``grid-<key>.kernel.ckpt``) so an interrupted campaign resumes;
    ``retries``/``timeout_s`` tune the resilient fan-out; ``replay``
    shares each kernel's caches and baseline with the campaign's other
    grids (see :func:`~repro.evaluation.runner.compare_policies`).

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
    key = comparison_cache_key(list(policy_factories), kernels, arch, preset,
                               seed=seed, cache_token=cache_token)

    def build() -> ComparisonResult:
        unit = f".fused{fuse_width}" if fused else ".kernel"
        ckpt = (campaign_checkpoint(cache_dir, "grid", f"{key}{unit}")
                if checkpoint else None)
        return compare_policies(policy_factories, kernels, arch, preset,
                                seed=seed, workers=workers, stats=stats,
                                checkpoint=ckpt, retries=retries,
                                timeout_s=timeout_s,
                                fused=fused, fuse_width=fuse_width,
                                replay=replay)

    return cached(
        Path(cache_dir) / f"grid-{key}.json", "comparison", stats, build,
        load=lambda path: ComparisonResult.from_payload(
            json.loads(path.read_text())),
        save=lambda path, result: atomic_write_text(
            path, json.dumps(result.to_payload())),
        use_cache=use_cache)
