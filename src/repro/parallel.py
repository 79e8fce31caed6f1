"""Parallel campaign execution with deterministic, resilient fan-out.

The offline stages of the reproduction — the §III-A data-generation
protocol, the Fig. 3 compression sweeps and the Fig. 4 policy × kernel
evaluation grid — are embarrassingly parallel: every task builds its
own simulator (or model) from an explicit seed, so results are
independent of execution order.  This module provides the shared
campaign layer:

* :func:`parallel_map` — ordered fan-out over a
  ``ProcessPoolExecutor`` hardened against the failure modes a long
  campaign actually meets: per-task retry with exponential backoff,
  a stall watchdog that terminates hung workers, quarantine of tasks
  that keep killing their workers (the rest of the campaign completes
  first; quarantined tasks get one final in-process rescue), and
  unpicklable work degrading to a serial pass.  A task that fails
  permanently raises :class:`~repro.errors.CampaignError` carrying the
  originating task id.
* :func:`cached` — the one content-addressed artefact cache: a file
  named by :func:`content_key` is loaded, or built and written; a file
  that fails to load is counted and rebuilt, never fatal.  The dataset,
  evaluation-grid and sweep-point caches all go through it.
* :func:`campaign_checkpoint` / :class:`CampaignCheckpoint` —
  persistence of completed task results next to the campaign's
  artefact, keyed by its content hash, so an interrupted campaign
  resumes instead of restarting; a corrupt or mismatched checkpoint is
  ignored, never fatal.
* :class:`CampaignStats` — lightweight observability: per-stage
  wall-clock timings, worker counts and named counters (cache hits,
  retries, crashes, hangs among them), rendered by the CLI ``--stats``
  flag.
* :func:`derive_seed` — stable per-task seed derivation so fan-out
  keeps the bit-identical determinism of the serial path.

With ``workers <= 1`` the map is a plain in-process loop and task
exceptions propagate unchanged; resilience applies to the pooled path,
where worker death would otherwise cost the whole campaign.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import CampaignError, ParallelError, ReproError
from .store import atomic_write_bytes

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Exception types that indicate the *pool* (not the task) failed:
#: broken workers, unpicklable callables or arguments, and OS-level
#: process failures.  Task-level library errors (``ReproError``
#: subclasses) are handled by the retry/quarantine machinery instead.
_POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError, AttributeError,
                  TypeError, ImportError, OSError)

#: Upper bound on one backoff sleep; retries never stall a campaign
#: for more than a couple of seconds per round.
_MAX_BACKOFF_S = 2.0
#: First retry round's backoff sleep; each later round doubles it.
BACKOFF_S = 0.05


@dataclass
class StageTiming:
    """Wall-clock record of one campaign stage."""

    name: str
    seconds: float
    tasks: int
    workers: int
    mode: str  # "serial" | "parallel" | "fallback"


class CampaignStats:
    """Counters and stage timings of one campaign invocation.

    A single instance is threaded through data generation, caching,
    training and evaluation, so one ``render()`` shows the
    whole pipeline: where the time went, how wide each stage fanned
    out, whether caches were hit, and what the resilience machinery
    (retries, crashes, hangs, checkpoint resumes, guard trips) had to
    absorb.
    """

    def __init__(self) -> None:
        self.counters = Counter()
        self.stages: list[StageTiming] = []

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Increment a named counter."""
        self.counters[name] += amount

    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str, tasks: int = 0, workers: int = 1,
              mode: str = "serial") -> Iterator[StageTiming]:
        """Time a named stage; the yielded record may be amended."""
        timing = StageTiming(name=name, seconds=0.0, tasks=tasks,
                             workers=workers, mode=mode)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - start
            self.stages.append(timing)

    def total_seconds(self) -> float:
        """Summed wall-clock over all recorded stages."""
        return sum(s.seconds for s in self.stages)

    def render(self) -> str:
        """Human-readable campaign summary (the ``--stats`` output)."""
        lines = ["campaign stats"]
        if self.stages:
            lines.append(f"  {'stage':24s} {'mode':9s} {'workers':>7s} "
                         f"{'tasks':>6s} {'wall (s)':>9s}")
            for s in self.stages:
                lines.append(f"  {s.name:24s} {s.mode:9s} {s.workers:7d} "
                             f"{s.tasks:6d} {s.seconds:9.3f}")
            lines.append(f"  {'total':24s} {'':9s} {'':7s} {'':6s} "
                         f"{self.total_seconds():9.3f}")
        if self.counters:
            lines.append("  counters")
            for name in sorted(self.counters):
                lines.append(f"    {name:30s} {self.counters[name]}")
        if not self.stages and not self.counters:
            lines.append("  (empty)")
        return "\n".join(lines)


def derive_seed(base_seed: int, *parts: object) -> int:
    """Stable per-task seed: SHA-256 of the base seed and task identity.

    Independent of worker count and scheduling order, so parallel and
    serial campaigns draw identical random streams for the same task.
    """
    payload = ":".join([str(int(base_seed)), *map(str, parts)])
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value: ``None``/1 → serial, ≤0 → all cores."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return max(1, os.cpu_count() or 1)
    return workers


def default_chunksize(num_tasks: int, workers: int) -> int:
    """Chunk fan-out so each worker sees ~4 chunks (amortised pickling)."""
    if num_tasks <= 0 or workers <= 0:
        raise ParallelError("chunking needs positive task/worker counts")
    return max(1, (num_tasks + 4 * workers - 1) // (4 * workers))


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

class CampaignCheckpoint:
    """Persistence of completed campaign-task results.

    The payload is a pickle of ``{magic, key, results}`` where ``key``
    identifies the campaign (callers pass the same content-addressed
    hash that names the final artefact), so a checkpoint can never be
    resumed into a different campaign.  Writes are atomic
    (tmp + ``os.replace``); a corrupt, truncated or mismatched file
    loads as empty — resuming degrades to restarting, never to
    crashing.  Because campaign tasks are deterministic, a resumed
    campaign's final artefact is byte-identical to an uninterrupted
    run's.
    """

    MAGIC = "repro-campaign-checkpoint-v1"

    def __init__(self, path: str | Path, key: str = "") -> None:
        self.path = Path(path)
        self.key = str(key)

    def load(self, expected_tasks: int | None = None) -> dict[int, object]:
        """Completed results from disk ({} for missing/corrupt/mismatch)."""
        if not self.path.exists():
            return {}
        try:
            payload = pickle.loads(self.path.read_bytes())
            if (payload.get("magic") != self.MAGIC
                    or payload.get("key") != self.key):
                logger.warning("checkpoint %s belongs to a different "
                               "campaign; ignoring", self.path)
                return {}
            results = dict(payload["results"])
        except Exception:
            logger.warning("corrupt campaign checkpoint %s; ignoring",
                           self.path, exc_info=True)
            return {}
        if expected_tasks is not None:
            results = {index: value for index, value in results.items()
                       if 0 <= index < expected_tasks}
        return results

    def save(self, results: dict[int, object]) -> None:
        """Atomically persist the completed results.

        Routed through the shared write-temp/fsync/rename helper so a
        crash mid-checkpoint can never leave a torn file for the next
        resume to (silently) discard.
        """
        payload = {"magic": self.MAGIC, "key": self.key,
                   "results": dict(results)}
        atomic_write_bytes(self.path, pickle.dumps(payload))

    def clear(self) -> None:
        """Remove the checkpoint (the campaign completed)."""
        self.path.unlink(missing_ok=True)


def campaign_checkpoint(cache_dir: str | Path, name: str,
                        key: str) -> CampaignCheckpoint:
    """The checkpoint of campaign ``key``: ``<cache_dir>/<name>-<key>.ckpt``."""
    return CampaignCheckpoint(Path(cache_dir) / f"{name}-{key}.ckpt", key=key)


# ---------------------------------------------------------------------------
# Content-addressed caches
# ---------------------------------------------------------------------------

def content_key(payload: dict) -> str:
    """SHA-256 fingerprint of a canonical-JSON payload (16 hex chars).

    Callers put everything that determines an artefact in ``payload``,
    so any change lands on a new key and nothing needs invalidating.
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cached(path: str | Path, kind: str, stats: CampaignStats,
           build: Callable[[], T], *, load: Callable[[Path], T],
           save: Callable[[Path, T], None], use_cache: bool = True) -> T:
    """Load the artefact at ``path``, or ``build`` and ``save`` it.

    Counts ``<kind>_cache_hit`` / ``<kind>_cache_miss`` in ``stats`` and
    times the ``<kind>_load`` / ``<kind>_save`` stages.  A file that
    ``load`` rejects — truncated, rotten or of an older shape — is
    logged, counted as ``<kind>_cache_corrupt`` and rebuilt, never a
    crash.  With ``use_cache=False`` the file is ignored and rewritten.
    ``save`` must write atomically, so a kill mid-save leaves the old
    artefact or the new one.
    """
    path = Path(path)
    if use_cache and path.exists():
        try:
            with stats.stage(f"{kind}_load", tasks=1):
                value = load(path)
        except Exception:
            logger.warning("corrupt %s cache %s; rebuilding", kind, path,
                           exc_info=True)
            stats.count(f"{kind}_cache_corrupt")
        else:
            stats.count(f"{kind}_cache_hit")
            return value
    stats.count(f"{kind}_cache_miss")
    path.parent.mkdir(parents=True, exist_ok=True)
    value = build()
    with stats.stage(f"{kind}_save", tasks=1):
        save(path, value)
    return value


# ---------------------------------------------------------------------------
# Resilient fan-out
# ---------------------------------------------------------------------------

def _run_group(fn: Callable[[T], R],
               tasks: list[T]) -> list[tuple[bool, object]]:
    """Worker-side unit: run a task group, reporting per-task outcomes.

    Task exceptions are captured per task (so one bad task cannot hide
    its group-mates' finished results); ``KeyboardInterrupt`` and other
    ``BaseException``s propagate to the pool machinery unchanged.
    """
    outcomes: list[tuple[bool, object]] = []
    for task in tasks:
        try:
            outcomes.append((True, fn(task)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


#: Errors a teardown step can legitimately hit on a broken pool:
#: OS-level process trouble plus interpreter internals drifting.
#: Anything else — ``KeyboardInterrupt`` included — propagates.
_POOL_TEARDOWN_ERRORS = (OSError, ValueError, RuntimeError,
                         AttributeError, KeyError)


def _terminate_pool(pool: ProcessPoolExecutor,
                    stats: CampaignStats | None = None) -> None:
    """Hard-stop a pool whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block forever on a hung worker, so
    the worker processes are terminated first.  Uses the executor's
    process table (no public kill API exists).  Teardown failures are
    never fatal — a campaign must not die while cleaning up a pool
    that is already broken — but they are no longer silent: each one
    is logged and counted as ``campaign_suppressed_errors``.
    """
    def _suppress(exc: BaseException, step: str) -> None:
        logger.warning("suppressed %s during pool teardown: %r", step, exc)
        if stats is not None:
            stats.count("campaign_suppressed_errors")

    processes = list(getattr(pool, "_processes", None) or {})
    process_map = getattr(pool, "_processes", None) or {}
    for pid in processes:
        try:
            process_map[pid].terminate()
        except _POOL_TEARDOWN_ERRORS as exc:
            _suppress(exc, f"terminate of worker {pid}")
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except _POOL_TEARDOWN_ERRORS as exc:
        _suppress(exc, "pool shutdown")
    for pid in processes:
        try:
            process_map[pid].join(timeout=5.0)
        except _POOL_TEARDOWN_ERRORS as exc:
            _suppress(exc, f"join of worker {pid}")


#: Ways ``pickle.dumps`` fails on an object that genuinely cannot
#: travel to a worker process.  Unrelated errors propagate.
_PICKLE_PROBE_ERRORS = (pickle.PicklingError, TypeError, AttributeError,
                        ValueError, RecursionError, NotImplementedError)


def _is_picklable(obj: object) -> bool:
    """True when ``obj`` can be shipped to a process-pool worker."""
    try:
        pickle.dumps(obj)
        return True
    except _PICKLE_PROBE_ERRORS:
        return False


#: Errors a checkpoint write can hit without invalidating the campaign
#: itself: filesystem trouble or an unpicklable result payload.
_CHECKPOINT_WRITE_ERRORS = (OSError, pickle.PicklingError, TypeError)


def _checkpoint_save(checkpoint: CampaignCheckpoint | None,
                     results: dict[int, object],
                     stats: CampaignStats) -> None:
    """Persist progress; a failed write is visible, never fatal.

    A full disk or unpicklable result must not kill an otherwise
    healthy campaign — the run merely loses its ability to resume.
    The failure is logged and counted
    (``campaign_checkpoint_write_failures`` plus the aggregate
    ``campaign_suppressed_errors``) so ``--stats`` surfaces it.
    """
    if checkpoint is None:
        return
    try:
        checkpoint.save(results)
    except _CHECKPOINT_WRITE_ERRORS as exc:
        logger.warning("campaign checkpoint write to %s failed: %r",
                       checkpoint.path, exc)
        stats.count("campaign_checkpoint_write_failures")
        stats.count("campaign_suppressed_errors")
    else:
        stats.count("campaign_checkpoint_saves")


def _checkpoint_clear(checkpoint: CampaignCheckpoint | None,
                      stats: CampaignStats) -> None:
    """Remove a completed campaign's checkpoint; count a failed unlink."""
    if checkpoint is None:
        return
    try:
        checkpoint.clear()
    except OSError as exc:
        logger.warning("could not remove campaign checkpoint %s: %r",
                       checkpoint.path, exc)
        stats.count("campaign_suppressed_errors")


def _serial_pass(fn: Callable[[T], R], tasks: Sequence[T],
                 results: dict[int, R], stats: CampaignStats,
                 checkpoint: CampaignCheckpoint | None) -> list[R]:
    """In-process completion of every task not already in ``results``."""
    for index, task in enumerate(tasks):
        if index in results:
            continue
        results[index] = fn(task)
        _checkpoint_save(checkpoint, results, stats)
    _checkpoint_clear(checkpoint, stats)
    return [results[index] for index in range(len(tasks))]


def parallel_map(fn: Callable[[T], R], tasks: Iterable[T], *,
                 workers: int | None = None,
                 stats: CampaignStats | None = None,
                 stage: str = "campaign", retries: int = 2,
                 timeout_s: float | None = None,
                 checkpoint: CampaignCheckpoint | None = None) -> list[R]:
    """Map ``fn`` over ``tasks``, preserving order, surviving failures.

    With ``workers`` > 1 the map fans out over a process pool and
    absorbs the pool's failure modes:

    * A worker crash (``BrokenProcessPool``) or a raised task exception
      costs the affected tasks one attempt; they are re-dispatched —
      individually, with exponential backoff — up to ``retries`` times.
      Deterministic library errors (``ReproError`` subclasses) skip
      straight past the pointless retries.
    * ``timeout_s`` is a stall watchdog: if *no* task completes for
      that long, the outstanding workers are presumed hung, terminated,
      and their tasks re-attempted.
    * A task that exhausts its attempts is quarantined — excluded from
      re-dispatch so the rest of the campaign completes — then given
      one final in-process rescue.  If even that fails, the campaign
      raises :class:`CampaignError` carrying the task id (completed
      results are checkpointed first when a checkpoint is configured).
    * An unpicklable ``fn`` falls back to a serial in-process pass
      (counted in ``parallel_fallbacks``), so a campaign never fails
      *because* it was parallel.

    With ``workers <= 1`` the map is a plain loop and task exceptions
    propagate unchanged, exactly as the serial pipeline would raise
    them.  ``checkpoint`` persists completed results (after every task
    on the serial path, after every round on the pooled one) and seeds
    the map on the next invocation, so interrupted campaigns
    resume instead of restarting.
    """
    tasks = list(tasks)
    stats = stats if stats is not None else CampaignStats()
    if retries < 0:
        raise ParallelError("retries cannot be negative")
    workers = min(resolve_workers(workers), max(1, len(tasks)))

    results: dict[int, R] = {}
    if checkpoint is not None:
        results = checkpoint.load(expected_tasks=len(tasks))
        if results:
            stats.count("campaign_tasks_resumed", len(results))

    if workers <= 1:
        with stats.stage(stage, tasks=len(tasks), workers=1, mode="serial"):
            return _serial_pass(fn, tasks, results, stats, checkpoint)

    if not _is_picklable(fn):
        # The pool cannot even receive the work; degrade to serial.
        stats.count("parallel_fallbacks")
        with stats.stage(stage, tasks=len(tasks), workers=1, mode="fallback"):
            return _serial_pass(fn, tasks, results, stats, checkpoint)

    with stats.stage(stage, tasks=len(tasks), workers=workers,
                     mode="parallel") as timing:
        attempts = Counter()
        last_error: dict[int, BaseException | None] = {}
        quarantined: list[int] = []
        round_index = 0
        since_save = 0

        def _save_checkpoint() -> None:
            nonlocal since_save
            if checkpoint is not None and since_save:
                _checkpoint_save(checkpoint, results, stats)
                since_save = 0

        def _record_failure(index: int, exc: BaseException | None,
                            counter: str) -> None:
            stats.count(counter)
            last_error[index] = exc
            attempts[index] += 1
            # Deterministic library errors re-fail identically; skip the
            # pointless pool retries and go straight to quarantine.
            if isinstance(exc, ReproError):
                attempts[index] = retries + 1

        while True:
            pending = [index for index in range(len(tasks))
                       if index not in results
                       and attempts[index] <= retries]
            if not pending:
                break
            if round_index > 0:
                time.sleep(min(BACKOFF_S * (2 ** (round_index - 1)),
                               _MAX_BACKOFF_S))
                stats.count("campaign_retries", len(pending))
            # First round dispatches in chunks (amortised pickling);
            # retry rounds go task-by-task so one poisoned task cannot
            # drag innocent chunk-mates through its failures.
            if round_index == 0:
                chunk = default_chunksize(len(pending), workers)
            else:
                chunk = 1
            groups = [pending[start:start + chunk]
                      for start in range(0, len(pending), chunk)]

            pool = ProcessPoolExecutor(max_workers=workers)
            pool_dirty = False
            try:
                futures = {}
                for group in groups:
                    try:
                        future = pool.submit(_run_group, fn,
                                             [tasks[i] for i in group])
                    except BaseException as exc:
                        for index in group:
                            _record_failure(index, exc,
                                            "campaign_worker_crashes")
                        continue
                    futures[future] = group
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(outstanding, timeout=timeout_s,
                                             return_when=FIRST_COMPLETED)
                    if not done:
                        # Stall watchdog: nothing finished for timeout_s.
                        pool_dirty = True
                        for future in outstanding:
                            for index in futures[future]:
                                if index not in results:
                                    _record_failure(index, None,
                                                    "campaign_hangs")
                        break
                    for future in done:
                        group = futures[future]
                        try:
                            outcomes = future.result()
                        except (KeyboardInterrupt, SystemExit):
                            pool_dirty = True
                            raise
                        except BaseException as exc:
                            counter = ("campaign_worker_crashes"
                                       if isinstance(exc, BrokenProcessPool)
                                       else "campaign_task_errors")
                            for index in group:
                                _record_failure(index, exc, counter)
                            continue
                        for index, (ok, value) in zip(group, outcomes):
                            if ok:
                                results[index] = value
                                since_save += 1
                            else:
                                _record_failure(index, value,
                                                "campaign_task_errors")
            except BaseException:
                _terminate_pool(pool, stats)
                _save_checkpoint()
                raise
            else:
                if pool_dirty:
                    _terminate_pool(pool, stats)
                else:
                    pool.shutdown(wait=True)
            _save_checkpoint()
            round_index += 1

        quarantined = [index for index in range(len(tasks))
                       if index not in results]
        if quarantined:
            # Quarantine rescue: the pool kept failing these tasks, so
            # give each one final in-process attempt — the same serial
            # degradation the layer has always promised.
            stats.count("parallel_fallbacks")
            stats.count("campaign_quarantined", len(quarantined))
            timing.mode = "fallback"
            for index in quarantined:
                try:
                    results[index] = fn(tasks[index])
                    stats.count("campaign_serial_rescues")
                    since_save += 1
                except Exception as exc:
                    _save_checkpoint()
                    cause = last_error.get(index) or exc
                    raise CampaignError(
                        f"task {index} failed after "
                        f"{attempts[index]} pooled attempts and an "
                        f"in-process rescue: {cause!r}",
                        task_id=index) from exc

        _checkpoint_clear(checkpoint, stats)
        return [results[index] for index in range(len(tasks))]
