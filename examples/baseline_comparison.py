#!/usr/bin/env python3
"""SSMDVFS vs PCSTALL vs F-LEMMA on evaluation kernels (paper Fig. 4).

Loads (or builds) the paper-scale model, then compares all policies on a
subset of the ~300 us evaluation programs at a 10 % performance-loss
preset, printing per-kernel normalized EDP/latency and the aggregate
improvements the paper headlines.

Usage::

    python examples/baseline_comparison.py [--kernels N] [--preset 0.10]
"""

import argparse

from repro.gpu import titan_x_config
from repro.workloads import (evaluation_suite, scale_kernel_to_duration,
                             training_suite)
from repro.datagen import ProtocolConfig, cached_dataset
from repro.nn.trainer import TrainConfig
from repro.core import PipelineConfig, build_from_dataset
from repro.cli import PAPER_FEATURES
from repro.evaluation import run_fig4


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", type=int, default=8,
                        help="number of evaluation kernels")
    parser.add_argument("--preset", type=float, default=0.10)
    parser.add_argument("--cache", default=".cache")
    args = parser.parse_args()

    arch = titan_x_config()
    print("building the model (dataset cached after the first run)...")
    dataset = cached_dataset(
        args.cache, training_suite(), arch,
        ProtocolConfig(max_breakpoints_per_kernel=10, seed=3))
    pipeline = build_from_dataset(dataset, arch, PipelineConfig(
        feature_names=PAPER_FEATURES,
        train=TrainConfig(epochs=250, patience=30, learning_rate=2e-3),
        seed=3,
    ))

    kernels = [scale_kernel_to_duration(k, arch, 300e-6)
               for k in evaluation_suite()[:args.kernels]]
    print(f"running Fig. 4 comparison on {len(kernels)} kernels at "
          f"preset {args.preset:.0%}...")
    fig4 = run_fig4(
        {"base": pipeline.models["base"],
         "pruned": pipeline.models["pruned"]},
        kernels, arch, presets=(args.preset,), seed=5)
    print(fig4.render())


if __name__ == "__main__":
    main()
