"""Kernel (de)serialization.

Users bring their own workloads as JSON kernel descriptions — the same
fields :class:`~repro.gpu.phases.Phase` and
:class:`~repro.gpu.kernels.KernelProfile` validate — so new benchmarks
can be added without touching the library.

Example file::

    {
      "name": "custom.mykernel",
      "suite": "custom",
      "iterations": 4,
      "jitter": 0.06,
      "phases": [
        {"name": "sweep", "instructions": 200000,
         "mix": {"fp32": 0.4, "load": 0.2, "store": 0.05, "branch": 0.1},
         "cpi_exec": 1.8, "mlp": 3.0,
         "l1_miss_rate": 0.4, "l2_miss_rate": 0.5,
         "active_warps": 40, "divergence": 0.1}
      ]
    }

Unspecified mix classes are filled via
:func:`~repro.gpu.phases.make_mix` (remainder to ``int``).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import WorkloadError
from ..gpu.kernels import KernelProfile
from ..gpu.phases import Phase, make_mix

_PHASE_FIELDS = ("cpi_exec", "mlp", "l1_miss_rate", "l2_miss_rate",
                 "active_warps", "divergence")


def phase_to_dict(phase: Phase) -> dict:
    """Serialise one phase."""
    payload = {"name": phase.name, "instructions": phase.instructions,
               "mix": {k: v for k, v in phase.mix.items() if v > 0}}
    for field in _PHASE_FIELDS:
        payload[field] = getattr(phase, field)
    return payload


def phase_from_dict(payload: dict) -> Phase:
    """Rebuild one phase; raises :class:`WorkloadError` on bad input."""
    if not isinstance(payload, dict):
        raise WorkloadError("phase entry must be an object")
    try:
        name = str(payload["name"])
        instructions = int(payload["instructions"])
    except KeyError as exc:
        raise WorkloadError(f"phase missing field: {exc}") from exc
    mix_spec = payload.get("mix", {})
    if not isinstance(mix_spec, dict):
        raise WorkloadError("phase mix must be an object")
    mix = make_mix(**{k: float(v) for k, v in mix_spec.items()})
    kwargs = {field: float(payload[field])
              for field in _PHASE_FIELDS if field in payload}
    return Phase(name=name, instructions=instructions, mix=mix, **kwargs)


def kernel_to_dict(kernel: KernelProfile) -> dict:
    """Serialise one kernel profile."""
    return {
        "name": kernel.name,
        "suite": kernel.suite,
        "iterations": kernel.iterations,
        "jitter": kernel.jitter,
        "phases": [phase_to_dict(p) for p in kernel.phases],
    }


def kernel_from_dict(payload: dict) -> KernelProfile:
    """Rebuild one kernel profile."""
    if not isinstance(payload, dict):
        raise WorkloadError("kernel payload must be an object")
    phases_spec = payload.get("phases")
    if not isinstance(phases_spec, list) or not phases_spec:
        raise WorkloadError("kernel needs a non-empty phases list")
    return KernelProfile(
        name=str(payload.get("name", "custom.kernel")),
        phases=[phase_from_dict(p) for p in phases_spec],
        iterations=int(payload.get("iterations", 1)),
        suite=str(payload.get("suite", "custom")),
        jitter=float(payload.get("jitter", 0.08)),
    )


def load_kernels(path: str | Path) -> list[KernelProfile]:
    """Load kernels from a JSON file (single object or list)."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"kernel file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"invalid kernel JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise WorkloadError("kernel file must hold an object or a list")
    return [kernel_from_dict(entry) for entry in payload]
