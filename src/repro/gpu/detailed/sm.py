"""Per-cycle SM model (detailed validation substrate).

Simulates one SM cluster cycle by cycle: a loose-round-robin scheduler
issues ready warps up to the issue width; each issued instruction draws
its class from the phase's mix and stalls its warp for the class's
execution latency; memory instructions walk an address stream through
an actual L1 cache and the latency/bandwidth memory subsystem.

This model is 3-4 orders of magnitude slower than the interval model,
so it only runs short windows — its job is to validate the interval
model's *trends* (IPC vs warps, frequency sensitivity, bandwidth
saturation), not to drive experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import SimulationError
from ..arch import GPUArchConfig
from ..phases import Phase
from .cache import SetAssociativeCache
from .memsys import MemorySubsystem

#: Execution latency per instruction class, in core cycles.
CLASS_LATENCY_CYCLES = {
    "fp32": 4, "fp64": 16, "int": 4, "sfu": 12,
    "load": 0, "store": 0,  # memory timing handled separately
    "shared": 24, "branch": 4, "sync": 8,
}


@dataclass
class DetailedResult:
    """Outcome of a detailed simulation window."""

    cycles: int
    instructions: int
    inst_by_class: dict[str, int]
    l1_accesses: int
    l1_misses: int
    stall_cycles: int
    dram_bytes: int

    @property
    def ipc(self) -> float:
        """Warp instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_miss_rate(self) -> float:
        """Observed L1 miss rate."""
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0


class DetailedSM:
    """One SM cluster simulated cycle by cycle."""

    #: L1 data cache geometry: 24 KiB, 6-way set associative.
    L1_SIZE_BYTES = 24 * 1024
    L1_WAYS = 6

    def __init__(self, arch: GPUArchConfig, phase: Phase, frequency_hz: float,
                 seed: int = 0) -> None:
        if frequency_hz <= 0:
            raise SimulationError("frequency must be positive")
        self.arch = arch
        self.phase = phase
        self.frequency_hz = float(frequency_hz)
        self.rng = np.random.default_rng(seed)
        self.num_warps = int(min(arch.max_warps_per_cluster,
                                 max(1, round(phase.active_warps))))
        self.l1 = SetAssociativeCache(self.L1_SIZE_BYTES, self.L1_WAYS,
                                      arch.cache_line_bytes)
        self.memsys = MemorySubsystem(arch.l2_latency_ns,
                                      arch.dram_latency_ns,
                                      arch.cluster_bandwidth_bytes_per_s,
                                      arch.cache_line_bytes)
        # Per-warp state.
        self.ready_cycle = np.zeros(self.num_warps, dtype=np.int64)
        self.issued = np.zeros(self.num_warps, dtype=np.int64)
        # Per-warp streaming base addresses: separate regions so warps
        # conflict in cache realistically.
        footprint = 4 * 1024 * 1024
        self.stream_pos = self.rng.integers(0, footprint,
                                            size=self.num_warps)
        self._classes = list(self.phase.mix)
        self._probabilities = np.array([self.phase.mix[c]
                                        for c in self._classes])
        self._probabilities /= self._probabilities.sum()
        self._rotate = 0
        # Absolute cycle clock: run() windows continue where the last
        # one stopped, so in-flight warp wakeups survive window edges.
        self._now = 0

    def _ns_to_cycles(self, seconds: float) -> int:
        return int(np.ceil(seconds * self.frequency_hz))

    def _memory_latency_cycles(self, cycle: int, address: int) -> int:
        """Walk the cache hierarchy, returning the load-to-use latency."""
        if self.l1.access(int(address)):
            return int(self.arch.l1_hit_latency_cycles)
        now_s = cycle / self.frequency_hz
        # L2 hit/miss decided by the phase's L2 miss rate (modelling an
        # L2 shared with 23 other clusters statistically).
        if self.rng.random() < self.phase.l2_miss_rate:
            ready_s = self.memsys.dram_request_ready_s(now_s)
        else:
            ready_s = self.memsys.l2_request_ready_s(now_s)
        return max(int(self.arch.l1_hit_latency_cycles),
                   self._ns_to_cycles(ready_s - now_s))

    def _next_address(self, warp: int) -> int:
        """Mostly-streaming access pattern with re-use, tuned so the
        observed L1 miss rate tracks the phase's target."""
        # A miss-rate-r stream: advance to a new line with prob r,
        # otherwise re-touch the current line (guaranteed hit).
        if self.rng.random() < self.phase.l1_miss_rate:
            self.stream_pos[warp] += self.arch.cache_line_bytes
        return int(self.stream_pos[warp])

    def run(self, cycles: int) -> DetailedResult:
        """Simulate ``cycles`` core cycles; returns aggregate stats."""
        if cycles <= 0:
            raise SimulationError("cycle count must be positive")
        issue_width = int(self.arch.issue_width)
        inst_by_class = {c: 0 for c in self._classes}
        instructions = 0
        stall_cycles = 0
        divergence_extra = 1.0 + 0.6 * self.phase.divergence
        l1_accesses_before = self.l1.accesses
        l1_misses_before = self.l1.misses
        dram_before = self.memsys.dram_bytes

        start = self._now
        self._now += cycles
        for cycle in range(start, start + cycles):
            eligible = np.nonzero(self.ready_cycle <= cycle)[0]
            if eligible.size == 0:
                stall_cycles += 1
                continue
            # Loose round robin: rotate priority among eligible warps.
            order = np.roll(eligible, -self._rotate % eligible.size)
            self._rotate += 1
            for warp in order[:issue_width]:
                class_index = int(self.rng.choice(len(self._classes),
                                                  p=self._probabilities))
                cls = self._classes[class_index]
                inst_by_class[cls] += 1
                instructions += 1
                base = self.phase.cpi_exec * divergence_extra
                latency = CLASS_LATENCY_CYCLES[cls]
                if cls in ("load", "store"):
                    mem_cycles = self._memory_latency_cycles(
                        cycle, self._next_address(int(warp)))
                    if cls == "store":
                        mem_cycles = int(mem_cycles * 0.45)
                    # Per-warp MLP: overlapping requests hide a share.
                    latency = max(1, int(mem_cycles / self.phase.mlp))
                wait = max(1, int(round(base)) + latency // 2)
                self.ready_cycle[warp] = cycle + wait
                self.issued[warp] += 1

        return DetailedResult(
            cycles=cycles,
            instructions=instructions,
            inst_by_class=inst_by_class,
            l1_accesses=self.l1.accesses - l1_accesses_before,
            l1_misses=self.l1.misses - l1_misses_before,
            stall_cycles=stall_cycles,
            dram_bytes=self.memsys.dram_bytes - dram_before,
        )
