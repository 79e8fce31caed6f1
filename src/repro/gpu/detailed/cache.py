"""Set-associative cache model (detailed validation substrate).

A straightforward LRU set-associative cache used by the per-cycle SM
model.  The interval model treats caches statistically (miss *rates*);
this model produces those rates from an actual address stream, which is
how the two levels of the simulator are cross-validated.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigError


class SetAssociativeCache:
    """LRU set-associative cache with hit/miss statistics."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes) != 0:
            raise ConfigError("size must be divisible by ways * line size")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        # tags[set][way]; -1 = invalid.  LRU tracked by last-use stamp.
        self.tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self.last_use = np.zeros((self.num_sets, ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on hit.

        Misses allocate (write-allocate, no dirty tracking — the power
        and timing effects of write-backs are folded into constants).
        """
        if address < 0:
            raise ConfigError("addresses must be non-negative")
        self._clock += 1
        line = address // self.line_bytes
        set_index = line % self.num_sets
        tag = line // self.num_sets
        row = self.tags[set_index]
        hit_ways = np.nonzero(row == tag)[0]
        if hit_ways.size:
            self.hits += 1
            self.last_use[set_index, hit_ways[0]] = self._clock
            return True
        self.misses += 1
        victim = int(np.argmin(self.last_use[set_index]))
        self.tags[set_index, victim] = tag
        self.last_use[set_index, victim] = self._clock
        return False
