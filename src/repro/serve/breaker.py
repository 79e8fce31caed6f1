"""Circuit breaker around the ML inference path of the serving runtime.

An always-on service cannot afford to keep paying for inference that is
failing or stalling: every slow call holds a worker, every retry feeds
back into queue delay, and a wedged model turns overload into an
outage.  :class:`CircuitBreaker` is the classic three-state machine —
CLOSED (calls flow), OPEN (calls short-circuit to the governor/PCSTALL
baseline), HALF_OPEN (a probe trickle decides whether to close again) —
driven entirely by the serving loop's integer tick clock, so the whole
state trajectory is deterministic for a seeded run.

Transitions::

    CLOSED   --(failure streak >= FAILURE_THRESHOLD)--> OPEN
    OPEN     --(OPEN_TICKS elapsed)-------------------> HALF_OPEN
    HALF_OPEN--(PROBE_SUCCESSES clean probes)---------> CLOSED
    HALF_OPEN--(any probe failure)--------------------> OPEN

A success slower than :data:`LATENCY_BUDGET_S` counts as a failure: the
breaker's job is protecting tail latency, and a model that answers
correctly but late is still burning the deadline budget of everything
queued behind it.  ``breaker_*`` counters expose every transition and
short-circuited call for ``--stats`` and the chaos harness.
"""

from __future__ import annotations

from collections import Counter

from ..errors import ServeError

#: Breaker states (strings so traces and exports read naturally).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


#: Consecutive failures that trip CLOSED -> OPEN.
FAILURE_THRESHOLD = 3
#: Latency past which a successful call counts as a failure (s); a
#: model that answers late still burns the queue's deadline budget.
LATENCY_BUDGET_S = 50e-6
#: Ticks the breaker stays OPEN before it admits probes.
OPEN_TICKS = 8
#: Consecutive clean probes that close a HALF_OPEN breaker.
PROBE_SUCCESSES = 2


class CircuitBreaker:
    """Tick-driven closed/open/half-open breaker for one inference path.

    The caller asks :meth:`allow` before every inference and reports
    the outcome with :meth:`record_success` / :meth:`record_failure`;
    the breaker never measures time itself — the serving loop's tick is
    the only clock, which keeps seeded replays byte-stable.
    """

    def __init__(self) -> None:
        self.state = CLOSED
        self.counters = Counter()
        self._failure_streak = 0
        self._probe_streak = 0
        self._opened_at = 0
        self._admitted = 0  # calls allowed but not yet resolved

    # ------------------------------------------------------------------
    def allow(self, now_tick: int) -> bool:
        """True when a call may go through the ML path at ``now_tick``."""
        if self.state == OPEN:
            if now_tick - self._opened_at >= OPEN_TICKS:
                self.state = HALF_OPEN
                self._probe_streak = 0
                self.counters["breaker_half_opens"] += 1
            else:
                self.counters["breaker_short_circuits"] += 1
                return False
        if self.state == HALF_OPEN:
            self.counters["breaker_probes"] += 1
        self._admitted += 1
        return True

    def _resolve(self) -> None:
        if self._admitted < 1:
            raise ServeError(
                "breaker outcome recorded for a call that was never "
                "admitted through allow()")
        self._admitted -= 1

    def record_success(self, now_tick: int, latency_s: float) -> None:
        """Report a completed call; slow successes count as failures."""
        if latency_s > LATENCY_BUDGET_S:
            self.counters["breaker_slow_successes"] += 1
            self.record_failure(now_tick)
            return
        self._resolve()
        self._failure_streak = 0
        if self.state == HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= PROBE_SUCCESSES:
                self.state = CLOSED
                self.counters["breaker_closes"] += 1

    def record_failure(self, now_tick: int) -> None:
        """Report a failed (or over-budget) call admitted earlier."""
        self._resolve()
        self.counters["breaker_failures"] += 1
        if self.state == HALF_OPEN:
            # One bad probe is enough evidence: back to OPEN.
            self.state = OPEN
            self._opened_at = now_tick
            self._failure_streak = 0
            self.counters["breaker_reopens"] += 1
            return
        self._failure_streak += 1
        if (self.state == CLOSED
                and self._failure_streak >= FAILURE_THRESHOLD):
            self.state = OPEN
            self._opened_at = now_tick
            self._failure_streak = 0
            self.counters["breaker_trips"] += 1
