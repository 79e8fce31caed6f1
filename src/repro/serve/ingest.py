"""Bounded telemetry ingestion: window assembly and backpressure.

Live counter telemetry is nothing like the offline replay's tidy epoch
stream: samples arrive late, duplicated, out of order, or not at all.
This module is the serving runtime's front door:

* :class:`WindowAssembler` — a per-stream sliding counter-window
  assembler (the window/label idiom of SNIPPETS.md snippet 3: each
  delivered window later gets its label from the *next* window).  It
  deduplicates by sequence number, re-orders buffered future samples,
  skips over gaps once they exceed an explicit lag bound, and drops
  samples older than the staleness bound — so the controller only ever
  sees a monotonic, bounded-age window stream.
* :class:`RequestQueue` — a bounded FIFO with deterministic load
  shedding and deadline-budget propagation.  When the queue is full
  the newest batch-class request is shed first (deadline-class
  requests are only displaced by other deadline-class arrivals, i.e.
  strictly at capacity); at dispatch a request whose remaining slack
  cannot cover service is shed rather than served late.

Every shed is recorded with its reason and the queue occupancy at the
moment of shedding, which is what lets the chaos harness assert the
"no deadline-class request shed while under capacity" invariant.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from ..errors import ServeError


@dataclass(frozen=True)
class TelemetrySample:
    """One counter-window sample from one GPU stream.

    ``seq`` is the per-stream monotonically increasing sequence number
    assigned at the source; ``sent_tick`` is when the source emitted it
    (arrival may be later).  ``payload`` is opaque to the assembler —
    the runtime carries the epoch record plus its instruction count.
    """

    stream_id: int
    seq: int
    sent_tick: int
    payload: object

    def __post_init__(self) -> None:
        if self.stream_id < 0 or self.seq < 0 or self.sent_tick < 0:
            raise ServeError("sample identity fields cannot be negative")


#: Ticks the assembler waits for a missing sequence number before it
#: declares a gap and skips ahead.
MAX_LAG_TICKS = 4
#: Maximum age of a sample at delivery (ticks); older windows describe
#: a GPU state too far gone to act on.
STALENESS_TICKS = 16
#: Bound of the per-stream reorder buffer (samples).
MAX_PENDING = 32


class _StreamState:
    """Reorder buffer and delivery cursor for one telemetry stream."""

    def __init__(self) -> None:
        self.next_seq = 0
        self.pending: dict[int, TelemetrySample] = {}
        self.waiting_since: int | None = None


class WindowAssembler:
    """Assemble gapped/duplicated/reordered samples into ordered windows.

    :meth:`offer` absorbs one arriving sample; :meth:`pop_ready` drains
    every window now deliverable in order.  All decisions are pure
    functions of the arrival sequence and the tick clock, so a seeded
    replay is byte-stable.
    """

    def __init__(self) -> None:
        self.counters = Counter()
        self._streams: dict[int, _StreamState] = {}

    def _stream(self, stream_id: int) -> _StreamState:
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = _StreamState()
        return state

    # ------------------------------------------------------------------
    def offer(self, sample: TelemetrySample, now_tick: int) -> None:
        """Absorb one arriving sample (possibly late/duplicate/early)."""
        self.counters["ingest_samples"] += 1
        state = self._stream(sample.stream_id)
        if sample.seq < state.next_seq or sample.seq in state.pending:
            self.counters["ingest_duplicates"] += 1
            return
        if now_tick - sample.sent_tick > STALENESS_TICKS:
            self.counters["ingest_stale_drops"] += 1
            return
        if sample.seq > state.next_seq:
            self.counters["ingest_reordered"] += 1
        if len(state.pending) >= MAX_PENDING:
            # Bounded buffer: drop the youngest (highest-seq) holding,
            # which preserves the oldest context the controller still
            # needs to resume the stream.
            victim = max(state.pending)
            if sample.seq < victim:
                del state.pending[victim]
                self.counters["ingest_buffer_evictions"] += 1
            else:
                self.counters["ingest_buffer_evictions"] += 1
                return
        state.pending[sample.seq] = sample

    def pop_ready(self, now_tick: int) -> list[TelemetrySample]:
        """Every window deliverable at ``now_tick``, in stream/seq order.

        A missing sequence number stalls its stream for at most
        ``MAX_LAG_TICKS``; past that the assembler skips to the oldest
        buffered sample and counts the skipped numbers as a gap.
        """
        ready: list[TelemetrySample] = []
        for stream_id in sorted(self._streams):
            state = self._streams[stream_id]
            while True:
                if state.next_seq in state.pending:
                    sample = state.pending.pop(state.next_seq)
                    state.next_seq += 1
                    state.waiting_since = None
                    if now_tick - sample.sent_tick > STALENESS_TICKS:
                        self.counters["ingest_stale_drops"] += 1
                        continue
                    self.counters["ingest_delivered"] += 1
                    ready.append(sample)
                    continue
                if not state.pending:
                    state.waiting_since = None
                    break
                if state.waiting_since is None:
                    state.waiting_since = now_tick
                if now_tick - state.waiting_since < MAX_LAG_TICKS:
                    break
                # Gap confirmed: jump the cursor to the oldest buffered
                # sample and account every skipped sequence number.
                oldest = min(state.pending)
                self.counters["ingest_gap_skips"] += oldest - state.next_seq
                state.next_seq = oldest
                state.waiting_since = None
        return ready


# ---------------------------------------------------------------------------
# Bounded request queue with deadline-budget propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeRequest:
    """One decision request assembled from a delivered window.

    ``deadline_tick`` is the absolute tick by which the decision must
    be actuated; ``deadline_class`` marks latency-critical requests
    (the class the shed-discipline invariant protects).
    """

    request_id: int
    stream_id: int
    seq: int
    arrival_tick: int
    deadline_tick: int
    deadline_class: bool
    payload: object

    def __post_init__(self) -> None:
        if self.deadline_tick < self.arrival_tick:
            raise ServeError("a request cannot arrive past its deadline")


@dataclass(frozen=True)
class ShedRecord:
    """Audit record of one shed request (reason + occupancy context)."""

    request_id: int
    stream_id: int
    reason: str
    deadline_class: bool
    queue_depth: int
    under_capacity: bool

    def to_payload(self) -> dict:
        """JSON-ready dict."""
        return {"request_id": self.request_id, "stream_id": self.stream_id,
                "reason": self.reason, "deadline_class": self.deadline_class,
                "queue_depth": self.queue_depth,
                "under_capacity": self.under_capacity}


@dataclass
class RequestQueue:
    """Bounded FIFO with deterministic shedding and slack checks.

    ``capacity`` bounds occupancy; overflow shedding prefers the
    youngest batch-class occupant, so a deadline-class request can only
    be displaced when the queue is entirely deadline-class — by
    construction, at capacity.  :meth:`pop_serviceable` propagates the
    deadline budget: a request whose remaining slack cannot cover
    ``service_ticks`` is shed (reason ``"deadline"``) instead of being
    served late.

    ``under_capacity`` in the shed audit records encodes *culpability*:
    an overflow shed happens at capacity by definition; a ``deadline``
    shed means the request expired while waiting, which implies the
    system was saturated (or its workers down) during the wait; only an
    ``infeasible`` shed — a request that arrives with less slack than
    one service interval — can occur while genuinely under capacity.
    The chaos harness asserts no deadline-class record ever carries
    ``under_capacity=True``.
    """

    capacity: int
    service_ticks: int = 1
    queue: deque = field(default_factory=deque)
    shed: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ServeError("queue capacity must be >= 1")
        if self.service_ticks < 0:
            raise ServeError("service_ticks cannot be negative")

    def __len__(self) -> int:
        return len(self.queue)

    def _shed(self, request: ServeRequest, reason: str, *,
              under_capacity: bool) -> None:
        self.shed.append(ShedRecord(
            request_id=request.request_id, stream_id=request.stream_id,
            reason=reason, deadline_class=request.deadline_class,
            queue_depth=len(self.queue), under_capacity=under_capacity))
        self.counters["serve_shed"] += 1
        self.counters[f"serve_shed_{reason}"] += 1

    def offer(self, request: ServeRequest) -> bool:
        """Enqueue one request; sheds on overflow.  True when queued.

        Overflow always happens *at* capacity by definition, so every
        overflow shed is recorded with ``under_capacity=False``.
        """
        if request.deadline_tick - request.arrival_tick < self.service_ticks:
            # Never serviceable even from an empty queue: refuse at the
            # door with honest under-capacity accounting.
            self._shed(request, "infeasible",
                       under_capacity=len(self.queue) < self.capacity)
            return False
        if len(self.queue) < self.capacity:
            self.queue.append(request)
            return True
        # Displace the youngest batch-class occupant first; when the
        # queue is entirely deadline-class the newcomer is refused
        # (FIFO fairness: the earlier arrivals keep their slots).
        for index in range(len(self.queue) - 1, -1, -1):
            occupant = self.queue[index]
            if not occupant.deadline_class:
                del self.queue[index]
                self._shed(occupant, "overflow", under_capacity=False)
                self.queue.append(request)
                return True
        self._shed(request, "overflow", under_capacity=False)
        return False

    def pop_serviceable(self, now_tick: int) -> ServeRequest | None:
        """The oldest request whose slack still covers service, or None.

        Requests whose remaining budget is already too small are shed
        with reason ``"deadline"`` on the way — the backpressure
        contract: late answers are never produced, they are refused as
        early as the budget math allows.  An expired request must have
        waited (it was feasible at :meth:`offer` time), so these sheds
        are attributed to saturation, never to an under-capacity system.
        """
        while self.queue:
            request = self.queue.popleft()
            if request.deadline_tick - now_tick < self.service_ticks:
                self._shed(request, "deadline", under_capacity=False)
                continue
            return request
        return None

    def drain(self) -> int:
        """Shed everything still queued (end of run); returns the count."""
        drained = 0
        while self.queue:
            self._shed(self.queue.popleft(), "drain", under_capacity=False)
            drained += 1
        return drained
