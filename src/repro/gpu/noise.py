"""Behavioural noise for the interval model.

Real kernels do not execute with perfectly stationary statistics inside
a phase: occupancy ripples, miss rates wander with the working set, and
the scheduler's instantaneous mix fluctuates.  We model this with a
multiplicative AR(1) (Ornstein–Uhlenbeck-like) process per perturbed
quantity: ``x[k] = 1 + RHO * (x[k-1] - 1) + sigma * eps``, clipped to
``[1 - CLIP, 1 + CLIP]``.  The process is mean-one, mean-reverting,
clipped away from zero, and fully determined by its RNG stream, so
simulations replay bit-identically from a snapshot.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import SimulationError


#: Track id shared by every flat (``sigma == 0``) track: all its
#: multipliers are 1.0, so the solution cache keys it at chunk 0.
FLAT_TRACK_ID = 0
#: Content key -> track id.  Bounded: cleared wholesale when full, after
#: which equal-content tracks get a new id (a lower hit rate, never an
#: alias — ids are never reused).
_TRACK_IDS: dict = {}
_TRACK_IDS_MAX = 1 << 16
_NEXT_TRACK_ID = itertools.count(FLAT_TRACK_ID + 1)


def _track_id(key) -> int:
    if key is not None:
        tid = _TRACK_IDS.get(key)
        if tid is not None:
            return tid
    tid = next(_NEXT_TRACK_ID)
    if key is not None:
        if len(_TRACK_IDS) >= _TRACK_IDS_MAX:
            _TRACK_IDS.clear()
        _TRACK_IDS[key] = tid
    return tid


class WorkloadNoise:
    """Workload-position-indexed behavioural noise.

    Data generation replays the *same* stretch of a kernel at several
    operating points; for the measured performance losses to be clean
    labels, the workload's behavioural wobble must be attached to the
    *instruction position*, not to wall-clock time.  This class exposes
    AR(1) multiplier triples ``(warps, miss, cpi)`` indexed by workload
    chunk: chunk ``k`` covers instructions ``[k*chunk, (k+1)*chunk)``.
    Values are generated lazily but deterministically from the RNG
    stream, so any replay — at any frequency, from any snapshot — sees
    identical multipliers at identical workload positions.

    Each track is the module's AR(1) recurrence with mean reversion
    :attr:`RHO` and clip half-width :attr:`CLIP`.

    ``track_id`` names the track's values for the solution cache.
    ``track_key`` identifies the RNG stream's content (the simulator
    passes ``(seed, cluster id, kernel name, jitter)``); tracks built
    with equal keys and parameters get one id, so a solve cached for
    one serves the other.  Without a key a track gets a fresh id, and a
    flat track always gets :data:`FLAT_TRACK_ID`.
    """

    #: Instructions covered by one noise chunk.
    CHUNK_INSTRUCTIONS = 2048
    #: Mean-reversion coefficient of every track.
    RHO = 0.85
    #: Hard clip half-width of every track.
    CLIP = 0.45

    def __init__(self, rng: np.random.Generator, sigma: float,
                 track_key: tuple | None = None) -> None:
        if sigma < 0:
            raise SimulationError("noise sigma cannot be negative")
        self._rng = rng
        self.sigma = float(sigma)
        self.chunk_instructions = self.CHUNK_INSTRUCTIONS
        self.track_id = (FLAT_TRACK_ID if self.sigma == 0.0 else _track_id(
            None if track_key is None else
            (track_key, self.sigma, self.RHO, self.CLIP,
             self.chunk_instructions)))
        # Three independent AR(1) tracks, grown lazily and never mutated.
        self._tracks: list[list[float]] = [[], [], []]

    #: Chunks materialised per extension beyond the requested index.
    #: numpy's ``standard_normal(n)`` consumes the bit stream exactly
    #: like ``n`` scalar draws, so batching (and over-extending) changes
    #: neither the draw sequence nor any track value — only how often
    #: the RNG is entered.
    _EXTEND_BLOCK = 16

    def _extend_to(self, chunk: int) -> None:
        have = len(self._tracks[0])
        if have > chunk:
            return
        low, high = 1.0 - self.CLIP, 1.0 + self.CLIP
        count = max(chunk + 1 - have, self._EXTEND_BLOCK)
        draws = (self.sigma * self._rng.standard_normal(3 * count)).tolist()
        rho = self.RHO
        track0, track1, track2 = self._tracks
        append0, append1, append2 = (track0.append, track1.append,
                                     track2.append)
        p0 = track0[-1] if track0 else 1.0
        p1 = track1[-1] if track1 else 1.0
        p2 = track2[-1] if track2 else 1.0
        d = 0
        # Branches replicate ``min(high, max(low, value))`` exactly for
        # the finite values produced here.
        for _ in range(count):
            v = 1.0 + rho * (p0 - 1.0) + draws[d]
            if v > high:
                v = high
            elif v < low:
                v = low
            p0 = v
            append0(v)
            v = 1.0 + rho * (p1 - 1.0) + draws[d + 1]
            if v > high:
                v = high
            elif v < low:
                v = low
            p1 = v
            append1(v)
            v = 1.0 + rho * (p2 - 1.0) + draws[d + 2]
            if v > high:
                v = high
            elif v < low:
                v = low
            p2 = v
            append2(v)
            d += 3

    def tracks(self) -> list[list[float]]:
        """The three raw multiplier tracks (warp, miss, cpi).

        Batching hook for the epoch engine: a solve-window refill first
        calls :meth:`multipliers` for the window's last chunk, which
        extends the tracks to cover it, then slices the lists directly
        instead of paying a method call per chunk.  Only meaningful when
        ``sigma > 0``; the lists must be treated as append-only.
        """
        return self._tracks

    def multipliers(self, chunk: int) -> tuple[float, float, float]:
        """Return ``(warp, miss, cpi)`` multipliers for ``chunk``."""
        if chunk < 0:
            raise SimulationError("chunk index cannot be negative")
        if self.sigma == 0.0:
            return (1.0, 1.0, 1.0)
        tracks = self._tracks
        track0 = tracks[0]
        if chunk >= len(track0):
            self._extend_to(chunk)
        return (track0[chunk], tracks[1][chunk], tracks[2][chunk])
