"""Kernel phase descriptions.

A *phase* is a stretch of kernel execution with roughly stationary
microarchitectural behaviour: instruction mix, per-warp issue cost,
cache behaviour, divergence, and occupancy.  GPGPU kernels — especially
the iterative Rodinia/Parboil/PolyBench kernels the paper uses — are
well described as short sequences of such phases repeated many times,
which is precisely the structure PCSTALL exploits and the property that
makes 10 µs-ahead prediction feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import WorkloadError

#: Instruction classes tracked by the simulator and the power model.
INSTRUCTION_CLASSES = (
    "fp32",
    "fp64",
    "int",
    "sfu",
    "load",
    "store",
    "shared",
    "branch",
    "sync",
)


def _default_mix() -> dict[str, float]:
    return {
        "fp32": 0.35,
        "fp64": 0.0,
        "int": 0.25,
        "sfu": 0.02,
        "load": 0.15,
        "store": 0.05,
        "shared": 0.08,
        "branch": 0.08,
        "sync": 0.02,
    }


@dataclass(frozen=True)
class Phase:
    """One stationary execution phase of a kernel (per-cluster view).

    Attributes
    ----------
    name:
        Label used in traces and tests.
    instructions:
        Warp-instructions executed per cluster in one pass of the phase.
    mix:
        Fraction of each instruction class; keys must be
        :data:`INSTRUCTION_CLASSES` and values must sum to 1.
    cpi_exec:
        Average issue-to-issue cost per instruction for a single warp in
        core cycles (data dependencies, execution latency, divergence
        re-convergence).  Always >= 1.
    mlp:
        Per-warp memory-level parallelism: how many outstanding memory
        requests a warp overlaps, >= 1.
    l1_miss_rate / l2_miss_rate:
        Read miss rates of the global-memory accesses in this phase.
    active_warps:
        Schedulable warps per cluster during this phase.
    divergence:
        Branch-divergence intensity in [0, 1]; feeds control-hazard
        stall accounting and mildly inflates ``cpi_exec``.
    """

    name: str
    instructions: int
    mix: dict[str, float] = field(default_factory=_default_mix)
    cpi_exec: float = 2.0
    mlp: float = 2.0
    l1_miss_rate: float = 0.3
    l2_miss_rate: float = 0.4
    active_warps: float = 32.0
    divergence: float = 0.1

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise WorkloadError(f"phase {self.name!r}: instructions must be positive")
        unknown = set(self.mix) - set(INSTRUCTION_CLASSES)
        if unknown:
            raise WorkloadError(f"phase {self.name!r}: unknown classes {sorted(unknown)}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(
                f"phase {self.name!r}: mix sums to {total:.6f}, expected 1.0"
            )
        if any(v < 0 for v in self.mix.values()):
            raise WorkloadError(f"phase {self.name!r}: negative mix fraction")
        if self.cpi_exec < 1.0:
            raise WorkloadError(f"phase {self.name!r}: cpi_exec must be >= 1")
        if self.mlp < 1.0:
            raise WorkloadError(f"phase {self.name!r}: mlp must be >= 1")
        for rate_name in ("l1_miss_rate", "l2_miss_rate", "divergence"):
            value = getattr(self, rate_name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"phase {self.name!r}: {rate_name} out of [0,1]")
        if self.active_warps < 1.0:
            raise WorkloadError(f"phase {self.name!r}: active_warps must be >= 1")

    @property
    def load_fraction(self) -> float:
        """Fraction of instructions that are global loads."""
        return self.mix.get("load", 0.0)

    @property
    def store_fraction(self) -> float:
        """Fraction of instructions that are global stores."""
        return self.mix.get("store", 0.0)

    @property
    def branch_fraction(self) -> float:
        """Fraction of instructions that are branches."""
        return self.mix.get("branch", 0.0)

    def scaled(self, instructions: int) -> "Phase":
        """Copy of this phase with a different instruction count."""
        return replace(self, instructions=instructions)


def make_mix(**fractions: float) -> dict[str, float]:
    """Build a full instruction mix from the given non-zero fractions.

    Unspecified classes get zero; the remainder (if any) after summing
    the given fractions is assigned to the ``int`` class so the mix
    always sums to one.

    >>> mix = make_mix(fp32=0.4, load=0.2, store=0.1, branch=0.1)
    >>> mix["int"]
    0.2
    """
    mix = {cls: 0.0 for cls in INSTRUCTION_CLASSES}
    for cls, value in fractions.items():
        if cls not in mix:
            raise WorkloadError(f"unknown instruction class {cls!r}")
        if value < 0:
            raise WorkloadError(f"negative fraction for {cls!r}")
        mix[cls] = float(value)
    total = sum(mix.values())
    if total > 1.0 + 1e-9:
        raise WorkloadError(f"mix fractions sum to {total:.4f} > 1")
    mix["int"] += 1.0 - total
    return mix


def compute_phase(name: str, instructions: int, *, warps: float = 48.0,
                  cpi: float = 1.6, divergence: float = 0.05) -> Phase:
    """A strongly compute-bound phase (dense FP32, few memory ops)."""
    return Phase(
        name=name,
        instructions=instructions,
        mix=make_mix(fp32=0.55, sfu=0.05, load=0.06, store=0.02,
                     shared=0.12, branch=0.05, sync=0.02),
        cpi_exec=cpi,
        mlp=3.0,
        l1_miss_rate=0.12,
        l2_miss_rate=0.25,
        active_warps=warps,
        divergence=divergence,
    )


def memory_phase(name: str, instructions: int, *, warps: float = 32.0,
                 l1_miss: float = 0.65, l2_miss: float = 0.6,
                 divergence: float = 0.1) -> Phase:
    """A strongly memory-bound phase (streaming loads, high miss rates)."""
    return Phase(
        name=name,
        instructions=instructions,
        mix=make_mix(fp32=0.18, load=0.30, store=0.10, shared=0.04,
                     branch=0.08, sync=0.02),
        cpi_exec=2.2,
        mlp=4.0,
        l1_miss_rate=l1_miss,
        l2_miss_rate=l2_miss,
        active_warps=warps,
        divergence=divergence,
    )


def balanced_phase(name: str, instructions: int, *, warps: float = 40.0,
                   divergence: float = 0.12) -> Phase:
    """A mixed compute/memory phase."""
    return Phase(
        name=name,
        instructions=instructions,
        mix=make_mix(fp32=0.34, sfu=0.03, load=0.17, store=0.06,
                     shared=0.08, branch=0.09, sync=0.02),
        cpi_exec=1.9,
        mlp=2.5,
        l1_miss_rate=0.35,
        l2_miss_rate=0.45,
        active_warps=warps,
        divergence=divergence,
    )


def divergent_phase(name: str, instructions: int, *, warps: float = 24.0,
                    divergence: float = 0.5) -> Phase:
    """An irregular, control-divergent phase (graph traversal style)."""
    return Phase(
        name=name,
        instructions=instructions,
        mix=make_mix(fp32=0.10, int=0.30, load=0.24, store=0.06,
                     branch=0.24, sync=0.02, shared=0.04),
        cpi_exec=3.0,
        mlp=1.8,
        l1_miss_rate=0.55,
        l2_miss_rate=0.65,
        active_warps=warps,
        divergence=divergence,
    )
