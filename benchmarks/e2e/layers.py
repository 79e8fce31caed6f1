"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark measures the program from outside: with ``--trace`` it
replaces each public function in :data:`CATALOGUE` by a timing wrapper
for the length of one run and restores the originals afterwards.
Nothing under ``src/`` knows it is being traced.

Per layer the tracer records calls, total seconds (outermost entries
only, so recursion is not counted twice), self seconds (total minus the
time spent in wrapped children), optional work counts such as rows or
cache keys, and, for the decision layers, a fixed-bucket latency
histogram.  Everything stays in memory; only the coarse ``span`` layers
are kept as individual Chrome trace events.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import math
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("offline-build", "fig4-grid", "fleet-trace", "serve-replay")
#: Workload groups for :attr:`Layer.expect`.
SIM = WORKLOADS
POLICY = ("fig4-grid", "fleet-trace", "serve-replay")
GUARDED = ("fleet-trace", "serve-replay")
TRAINING = ("offline-build", "serve-replay")


@dataclass(frozen=True)
class Layer:
    """One traced layer: a public function or a set of public methods.

    ``attrs`` name module-level functions (``"run_epoch_batch"``) or
    class attributes (``"SolutionCache.probe_batch"``) of ``module``;
    several attributes fold into one layer.  ``expect`` lists the
    workloads on which the layer must record at least one call, so a
    rename or a new import binding cannot silently zero it.  ``counts``
    maps ``(args, kwargs, result)`` to extra work counters.
    """

    name: str
    module: str
    attrs: tuple[str, ...]
    expect: tuple[str, ...] = ()
    span: bool = False
    latency: bool = False
    counts: Callable[[tuple, dict, Any], dict[str, int]] | None = None
    label: Callable[[tuple, dict], str] | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


CATALOGUE: tuple[Layer, ...] = (
    # Simulation hot path.
    Layer("gpu.quantum.run_epoch_batch", "repro.gpu.quantum",
          ("run_epoch_batch",), SIM,
          counts=lambda a, k, r: {"rows": len(_arg(a, k, 0, "clusters"))}),
    Layer("gpu.interval_model.solve_throughput_batch",
          "repro.gpu.interval_model", ("solve_throughput_batch",), SIM,
          counts=lambda a, k, r: {"rows": len(_arg(a, k, 1, "params"))}),
    Layer("gpu.interval_model.SolutionCache.probe_batch",
          "repro.gpu.interval_model", ("SolutionCache.probe_batch",), SIM,
          counts=lambda a, k, r: {"keys": len(_arg(a, k, 1, "keys")),
                                  "missing": len(r)}),
    Layer("gpu.interval_model.SolutionCache.store_batch",
          "repro.gpu.interval_model", ("SolutionCache.store_batch",), SIM),
    Layer("gpu.cluster.build_counters_matrix", "repro.gpu.cluster",
          ("build_counters_matrix",), SIM),
    Layer("gpu.counters.CounterSet.from_vector", "repro.gpu.counters",
          ("CounterSet.from_vector",), SIM),
    Layer("power.model.PowerModel.cluster_power_batch", "repro.power.model",
          ("PowerModel.cluster_power_batch",), SIM),
    Layer("power.model.PowerModel.uncore_power", "repro.power.model",
          ("PowerModel.uncore_power",), SIM),
    Layer("gpu.simulator.GPUSimulator.init", "repro.gpu.simulator",
          ("GPUSimulator.__init__",), SIM),
    Layer("gpu.simulator.GPUSimulator.step_epoch", "repro.gpu.simulator",
          ("GPUSimulator.step_epoch",), SIM),
    Layer("gpu.simulator.GPUSimulator.snapshot", "repro.gpu.simulator",
          ("GPUSimulator.snapshot",), ("offline-build",)),
    Layer("gpu.simulator.GPUSimulator.restore", "repro.gpu.simulator",
          ("GPUSimulator.restore",), ("offline-build",)),
    Layer("gpu.fused.FusedCampaignEngine.step_quantum", "repro.gpu.fused",
          ("FusedCampaignEngine.step_quantum",)),
    # Offline build: datagen, feature selection, training.
    Layer("datagen.protocol.generate_for_suite", "repro.datagen.protocol",
          ("generate_for_suite",), ("offline-build",), span=True),
    Layer("datagen.dataset.DVFSDataset.from_breakpoints",
          "repro.datagen.dataset", ("DVFSDataset.from_breakpoints",),
          ("offline-build",)),
    Layer("datagen.rfe.RFESelector.run", "repro.datagen.rfe",
          ("RFESelector.run",), ("offline-build",), span=True),
    Layer("datagen.rfe.permutation_importances", "repro.datagen.rfe",
          ("permutation_importances",), ("offline-build",)),
    Layer("nn.trainer.fit", "repro.nn.trainer", ("fit",), TRAINING),
    Layer("nn.compress.train_pair", "repro.nn.compress", ("train_pair",),
          ("offline-build",), span=True),
    Layer("nn.compress.prune_and_finetune", "repro.nn.compress",
          ("prune_and_finetune",), ("offline-build",), span=True),
    # Inference and control.
    Layer("core.decision_maker.DecisionMaker.predict",
          "repro.core.decision_maker",
          ("DecisionMaker.predict_level", "DecisionMaker.predict_levels"),
          POLICY),
    Layer("core.calibrator.Calibrator.predict", "repro.core.calibrator",
          ("Calibrator.predict_ratio", "Calibrator.predict_ratios",
           "Calibrator.predict_instructions",
           "Calibrator.predict_instructions_batch"), POLICY),
    Layer("core.controller.SSMDVFSController.decide",
          "repro.core.controller", ("SSMDVFSController.decide",), POLICY,
          latency=True),
    Layer("core.guarded.GuardedController.decide", "repro.core.guarded",
          ("GuardedController.decide",), GUARDED, latency=True),
    Layer("baselines.pcstall.PCSTALLPolicy.decide", "repro.baselines.pcstall",
          ("PCSTALLPolicy.decide",), ("fig4-grid",)),
    Layer("baselines.flemma.FLEMMAPolicy.decide", "repro.baselines.flemma",
          ("FLEMMAPolicy.decide",), ("fig4-grid",)),
    Layer("baselines.governor.UtilizationGovernor.decide",
          "repro.baselines.governor", ("UtilizationGovernor.decide",)),
    Layer("evaluation.runner.compare_policies", "repro.evaluation.runner",
          ("compare_policies",), ("fig4-grid",), span=True,
          label=lambda a, k: f"preset={_arg(a, k, 3, 'preset'):.2f}"),
    Layer("fleet.scheduler.ClusterScheduler.run", "repro.fleet.scheduler",
          ("ClusterScheduler.run",), ("fleet-trace",), span=True),
    # Serving.
    Layer("serve.runtime.ServingRuntime.run", "repro.serve.runtime",
          ("ServingRuntime.run",), ("serve-replay",), span=True),
    Layer("serve.ingest.WindowAssembler", "repro.serve.ingest",
          ("WindowAssembler.offer", "WindowAssembler.pop_ready"),
          ("serve-replay",)),
    Layer("serve.ingest.RequestQueue", "repro.serve.ingest",
          ("RequestQueue.offer", "RequestQueue.pop_serviceable",
           "RequestQueue.drain"), ("serve-replay",)),
    Layer("serve.supervisor.Supervisor", "repro.serve.supervisor",
          ("Supervisor.ready_workers", "Supervisor.dispatch",
           "Supervisor.crash", "Supervisor.hang", "Supervisor.tick"),
          ("serve-replay",)),
    Layer("serve.breaker.CircuitBreaker", "repro.serve.breaker",
          ("CircuitBreaker.allow", "CircuitBreaker.record_success",
           "CircuitBreaker.record_failure"), ("serve-replay",)),
    Layer("serve.online.OnlineCalibrator.observe", "repro.serve.online",
          ("OnlineCalibrator.observe",), ("serve-replay",)),
    Layer("serve.online.OnlineCalibrator.maybe_update", "repro.serve.online",
          ("OnlineCalibrator.maybe_update",), ("serve-replay",)),
    Layer("store.ArtifactStore.put", "repro.store", ("ArtifactStore.put",),
          ("serve-replay",)),
    Layer("store.ArtifactStore.get", "repro.store", ("ArtifactStore.get",),
          ("serve-replay",)),
    # Campaign layer (serial at workers=1: its self time is overhead).
    Layer("parallel.parallel_map", "repro.parallel", ("parallel_map",), SIM,
          span=True, label=lambda a, k: str(k.get("stage", ""))),
)

#: Fixed latency-histogram bucket edges: 20 per decade, 1 us .. 10 s.
BUCKET_EDGES_US = tuple(10 ** (i / 20) for i in range(141))


def percentile_us(histogram: list[int], fraction: float) -> float:
    """Percentile of a bucket histogram, interpolated inside the bucket
    on a log scale; 0.0 for an empty histogram."""
    total = sum(histogram)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0
    for index, count in enumerate(histogram):
        if count and seen + count >= rank:
            low = BUCKET_EDGES_US[index - 1] if index else 0.5
            high = (BUCKET_EDGES_US[index] if index < len(BUCKET_EDGES_US)
                    else BUCKET_EDGES_US[-1] * 10 ** 0.05)
            share = (rank - seen) / count
            return low * (high / low) ** share
        seen += count
    return BUCKET_EDGES_US[-1]


@dataclass
class LayerStats:
    """Aggregates of one layer over one traced run."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    histogram: list[int] | None = None

    def to_payload(self) -> dict:
        """Flat JSON-ready view (percentiles derived from the histogram)."""
        payload: dict[str, Any] = {"calls": self.calls,
                                   "total_s": self.total_s,
                                   "self_s": self.self_s, **self.counts}
        if self.histogram is not None:
            payload["p50_us"] = percentile_us(self.histogram, 0.50)
            payload["p99_us"] = percentile_us(self.histogram, 0.99)
            payload["samples"] = sum(self.histogram)
        return payload


ROOT = "driver"


class Tracer:
    """Install timing wrappers over :data:`CATALOGUE` for one run.

    Use as a context manager around the work; :meth:`root` marks the
    workload's root call, whose self time is everything no wrapped
    layer accounts for.
    """

    def __init__(self, layers: tuple[Layer, ...] = CATALOGUE,
                 max_spans: int = 20000) -> None:
        self.layers = layers
        self.stats = {layer.name: LayerStats(
            histogram=[0] * (len(BUCKET_EDGES_US) + 1)
            if layer.latency else None) for layer in layers}
        self.stats[ROOT] = LayerStats()
        self.spans: list[dict] = []
        self.max_spans = max_spans
        self.origin = time.perf_counter()
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list[float], start: float,
               end: float, label: str | None, span: bool) -> float:
        self._stack.pop()
        duration = end - start
        stats = self.stats[name]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if span and len(self.spans) < self.max_spans:
            self.spans.append({
                "name": f"{name} {label}" if label else name, "ph": "X",
                "ts": (start - self.origin) * 1e6, "dur": duration * 1e6,
                "tid": 0})
        return duration

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, active = layer.name, self._active
        stats = self.stats[name]
        histogram = stats.histogram
        edges = BUCKET_EDGES_US
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:  # re-entry of the same layer: count once
                return fn(*args, **kwargs)
            active.add(name)
            frame = self._enter()
            label = layer.label(args, kwargs) if layer.label else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active.discard(name)
                duration = self._leave(name, frame, start, end, label,
                                       layer.span)
                if histogram is not None:
                    histogram[bisect.bisect_left(edges,
                                                 duration * 1e6)] += 1
            if layer.counts is not None:
                for key, amount in layer.counts(args, kwargs,
                                                result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + amount
            return result

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every binding of every catalogued layer.

        Every ``repro`` module is imported first, and a module-level
        function is replaced in *every* module that binds it (``from x
        import f`` copies the name), so callers importing it under
        another module see the wrapper too.
        """
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for layer in self.layers:
            module = importlib.import_module(layer.module)
            for attr in layer.attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = vars(cls)[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._patch(cls, method, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original)
                for candidate in modules:
                    for key, value in list(vars(candidate).items()):
                        if value is original:
                            self._patch(candidate, key, wrapped)

    def uninstall(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:  # a missing target: undo what was patched
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def bindings(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patches)

    # -- root span -------------------------------------------------------
    def root(self, fn: Callable, *args, **kwargs):
        """Call the workload's root function as the ``driver`` span."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(ROOT, frame, start, time.perf_counter(), None, True)

    # -- results ---------------------------------------------------------
    def table(self) -> dict[str, dict]:
        """Per-layer payloads, root included."""
        return {name: stats.to_payload()
                for name, stats in self.stats.items()}

    def missing(self, workload: str) -> list[str]:
        """Layers expected on ``workload`` that recorded no call."""
        return [layer.name for layer in self.layers
                if workload in layer.expect
                and self.stats[layer.name].calls == 0]


def top_self(table: dict[str, dict], count: int = 5) -> list[list]:
    """The ``count`` layers with the largest self time, with shares of
    the root's total (the traced wall time of the workload call)."""
    wall = table[ROOT]["total_s"] or math.nan
    ranked = sorted(((payload["self_s"], name)
                     for name, payload in table.items()), reverse=True)
    return [[name, self_s, self_s / wall] for self_s, name in ranked[:count]]
