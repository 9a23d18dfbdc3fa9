"""Process-pool fan-out with cache, ledger, retries, and timeouts.

:func:`run_tasks` is the single execution entry point of the runtime:
it takes a list of :class:`~repro.runtime.tasks.Task`, consults the
result cache, dispatches misses across a ``ProcessPoolExecutor`` (or
runs them inline when ``jobs=1``), retries transient failures with
jittered exponential backoff, enforces a per-task wall-clock timeout,
appends every outcome to the run ledger, and returns one
:class:`~repro.runtime.tasks.TaskResult` per input task *in input
order* -- so callers see identical result sequences regardless of
``jobs``.

Serial mode (``jobs=1``) never pickles anything and never forks: tasks
run in-process, closures work, ``pdb`` works, and per-task timeouts are
not enforced (there is no second process to bound).  This is the
debugging path and the Windows-safe path.

Parallel mode keeps at most ``jobs`` tasks in flight.  A task that
exceeds ``timeout_s`` is marked ``"timeout"`` and abandoned (its worker
process finishes in the background; the pool's effective width shrinks
by one until it does).  Timeouts are assumed systematic and are not
retried by default; ``retry_timeouts=True`` opts them into the retry
budget (``runtime.pool.timeout_retries``).

Failure classification: exceptions are split into *transient* (worth
the retry budget -- the default for unknown exceptions, preserving the
original behavior) and *permanent*
(:class:`~repro.errors.PermanentTaskError`, configuration errors,
unpicklable tasks), which fail immediately
(``runtime.pool.permanent_failures``).

The pool survives its own workers: a worker process that dies
mid-task -- a real crash, or one injected by a
:class:`~repro.runtime.chaos.ChaosPolicy` -- breaks the
``ProcessPoolExecutor``, which the pool rebuilds
(``runtime.pool.pool_restarts``), charging a retry attempt to the
crashed task and requeueing innocent in-flight victims at their
current attempt.  Cache and ledger write failures (full disk, torn
files) are absorbed (``runtime.cache.write_errors``) rather than
allowed to take down a sweep whose results are already in memory.

``clock=`` and ``sleep=`` are injectable so retry/backoff behavior is
testable without real sleeping; chaos tests run entire crash-retry
schedules in milliseconds.
"""

from __future__ import annotations

import errno
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.chaos import (
    ChaosPolicy,
    InjectedHang,
    deterministic_unit,
    tear_file,
)
from repro.runtime.ledger import RunLedger
from repro.runtime.tasks import (
    Task,
    TaskResult,
    classify_error,
    run_task,
    task_identity,
    task_key,
)

#: ``on_result`` callback signature: (input index, finished result).
ResultCallback = Callable[[int, TaskResult], None]

_CHAOS_COUNTERS = {"crash": "runtime.chaos.crashes",
                   "hang": "runtime.chaos.hangs",
                   "transient": "runtime.chaos.transients"}


def default_jobs() -> int:
    return os.cpu_count() or 1


def _backoff_delay(backoff_s: float, attempt: int, jitter: float,
                   key: str) -> float:
    """Delay before retrying ``key`` after failed attempt ``attempt``.

    Exponential in the attempt number; ``jitter > 0`` stretches it by
    up to ``jitter`` fraction, keyed deterministically by (key,
    attempt) so two racing sweeps desynchronize their retries without
    consuming RNG state or losing reproducibility.
    """
    delay = backoff_s * 2 ** (attempt - 1)
    if jitter > 0.0:
        delay *= 1.0 + jitter * deterministic_unit("backoff", key, attempt)
    return delay


def _run_task_observed(task: Task, collect_metrics: bool,
                       trace=None) -> tuple:
    """Run one task, optionally inside a fresh metrics registry.

    Every task gets its *own* registry so per-task snapshots are
    independent of what ran before them in the same process -- the
    parent merges them in input order, making the aggregate identical
    for any ``jobs`` value.  Returns ``(value, snapshot-or-None)``.
    """
    if not collect_metrics:
        return run_task(task), None
    registry = obs.MetricsRegistry()
    registry.trace_sink = trace
    previous = obs.set_registry(registry)
    try:
        value = run_task(task)
    finally:
        obs.set_registry(previous)
    # Timings ride along for the parent's profile view; everything written
    # to disk (sidecar, --metrics) strips them back out for determinism.
    return value, registry.snapshot(timings=True)


def _worker_execute(task: Task, collect_metrics: bool = False,
                    chaos: Optional[ChaosPolicy] = None,
                    chaos_key: str = "", attempt: int = 1) -> dict:
    """Run one task in a worker; always returns (never raises) so the
    parent gets wall time and worker identity even for failures.

    The exception: an injected chaos *crash* really kills the process
    (``os._exit``), exactly like the fault it models -- the parent sees
    a broken pool, not a payload.  Chaos fires *before* the task's
    metrics registry opens, so injection never perturbs snapshots.
    """
    import traceback

    started = time.perf_counter()
    try:
        if chaos is not None:
            chaos.apply_before_task(chaos_key, attempt, in_worker=True)
        value, metrics = _run_task_observed(task, collect_metrics)
        return {"ok": True, "value": value, "metrics": metrics,
                "pid": os.getpid(),
                "wall_s": time.perf_counter() - started}
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        return {"ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": classify_error(exc),
                "traceback": traceback.format_exc(),
                "pid": os.getpid(),
                "wall_s": time.perf_counter() - started}


@dataclass
class _Attempt:
    index: int
    task: Task
    key: str
    attempt: int  # 1-based
    eligible_at: float  # monotonic time before which it must not start
    enqueued_at: float = 0.0  # monotonic time the task first queued

    @property
    def chaos_key(self) -> str:
        """What chaos decisions are drawn on: the fingerprint-free
        :func:`~repro.runtime.tasks.task_identity`."""
        return task_identity(self.task)


def run_tasks(tasks: Sequence[Task], *,
              jobs: Optional[int] = None,
              timeout_s: Optional[float] = None,
              retries: int = 0,
              backoff_s: float = 0.25,
              jitter: float = 0.0,
              retry_timeouts: bool = False,
              cache: Optional[ResultCache] = None,
              ledger: Optional[RunLedger] = None,
              chaos: Optional[ChaosPolicy] = None,
              on_result: Optional[ResultCallback] = None,
              collect_metrics: bool = False,
              trace=None,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep,
              heartbeat_s: float = 5.0) -> list[TaskResult]:
    """Execute ``tasks`` and return their results in input order.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``; ``1`` runs
        everything inline in this process.
    timeout_s:
        Per-task wall-clock limit (parallel mode only).
    retries:
        Extra attempts after a failed transient (not permanent)
        attempt.
    backoff_s:
        Base delay before retry *k* of a task: ``backoff_s * 2**(k-1)``.
    jitter:
        Fraction by which each backoff delay is deterministically
        stretched (keyed by task and attempt); ``0`` disables.
    retry_timeouts:
        Spend retry budget on timed-out tasks too (default off: a
        timeout is presumed systematic, not transient).
    cache:
        Consulted before dispatch; successful fresh results are stored.
        Write failures (full disk, contended locks) never fail the
        task -- the value is already in memory.
    ledger:
        Every final outcome is appended (including cache hits), plus
        start events at dispatch and periodic heartbeats for in-flight
        tasks, so an interrupted run leaves an orphan trail.
    chaos:
        A :class:`~repro.runtime.chaos.ChaosPolicy` injecting faults
        into task execution and cache/ledger writes.  Injection is
        content-keyed: the same policy hits the same tasks identically
        at any ``jobs``.
    on_result:
        Called once per task as it finishes, out of input order.
    collect_metrics:
        Execute each fresh task inside its own
        :class:`~repro.obs.metrics.MetricsRegistry`; the deterministic
        snapshot comes back on ``TaskResult.metrics``.
    trace:
        A :class:`~repro.obs.tracing.TraceWriter` receiving every span
        closed while tasks run.  Serial mode only (worker processes
        cannot share the parent's file handle); ignored when ``jobs>1``.
    clock / sleep:
        Injectable monotonic clock and sleep (tests substitute a fake
        pair so retry schedules run instantly).
    heartbeat_s:
        Interval between ledger heartbeats for in-flight tasks
        (parallel mode; ``0`` disables).
    """
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if jitter < 0.0:
        raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
    if chaos is not None and chaos.hang_rate > 0.0 and jobs > 1 and \
            (timeout_s is None or timeout_s >= chaos.hang_s):
        raise ConfigurationError(
            "chaos hang injection with jobs > 1 needs timeout_s < "
            f"chaos.hang_s ({chaos.hang_s}); otherwise injected hangs "
            "wedge workers for their full duration")

    results: dict[int, TaskResult] = {}

    def finish(index: int, result: TaskResult) -> None:
        results[index] = result
        if result.outcome == "ok" and cache is not None:
            _store(cache, result, chaos)
        if ledger is not None:
            ledger.record(result, chaos=chaos)
        if on_result is not None:
            on_result(index, result)

    # Cache pass: anything warm never reaches a worker.
    pending: deque[_Attempt] = deque()
    enqueued_at = clock()
    for index, task in enumerate(tasks):
        key = cache.key_for(task) if cache is not None else task_key(task)
        hit = cache.get(task) if cache is not None else None
        if hit is not None:
            finish(index, TaskResult(task=task, key=key, outcome="cached",
                                     value=hit.value, wall_s=hit.wall_s,
                                     attempts=0, worker="cache",
                                     metrics=(cache.get_metrics(task)
                                              if collect_metrics else None)))
        else:
            pending.append(_Attempt(index, task, key, 1, 0.0,
                                    enqueued_at=enqueued_at))

    if jobs == 1:
        _run_serial(pending, retries, backoff_s, jitter, retry_timeouts,
                    finish, collect_metrics, trace, chaos, ledger,
                    clock, sleep)
    elif pending:
        _run_parallel(pending, jobs, timeout_s, retries, backoff_s,
                      jitter, retry_timeouts, finish, collect_metrics,
                      chaos, ledger, clock, sleep, heartbeat_s)
    return [results[i] for i in range(len(tasks))]


def _store(cache: ResultCache, result: TaskResult,
           chaos: Optional[ChaosPolicy]) -> None:
    """Write one result (and metrics sidecar) to the cache.

    Chaos may tear the written entry (damaged bytes the quarantine
    path must absorb on the next read) or veto the write with a
    simulated full disk.  Real write errors are counted and dropped:
    the computed value is already in memory, so a sick filesystem must
    not fail the task.
    """
    action = (chaos.cache_action(task_identity(result.task))
              if chaos is not None else None)
    try:
        if action == "enospc":
            obs.counter("runtime.chaos.enospc").inc()
            raise OSError(errno.ENOSPC,
                          "chaos: injected ENOSPC on cache write")
        key = cache.put(result.task, result.value, wall_s=result.wall_s)
    except ValueError:
        return  # value has no JSON form; skip caching it
    except OSError:
        obs.counter("runtime.cache.write_errors").inc()
        return
    if action == "torn" and tear_file(cache.path_for(key)):
        obs.counter("runtime.chaos.torn_cache_writes").inc()
    if result.metrics is not None:
        try:
            cache.put_metrics(result.task, result.metrics)
        except OSError:
            obs.counter("runtime.cache.write_errors").inc()


def _note_injection(chaos: Optional[ChaosPolicy], key: str, attempt: int,
                    noted: Optional[set] = None) -> None:
    """Count an imminent chaos task fault (parent-side, pre-dispatch).

    Counting in the parent -- rather than in the worker, which may be
    about to die -- keeps the counters exact and identical between
    serial and parallel runs. ``noted`` dedupes per (key, attempt): an
    innocent task requeued after a neighbour broke the pool re-dispatches
    at its *same* attempt, and the schedule point must not count twice.
    """
    action = chaos.task_action(key, attempt) if chaos is not None else None
    if action is None:
        return
    if noted is not None:
        if (key, attempt) in noted:
            return
        noted.add((key, attempt))
    obs.counter(_CHAOS_COUNTERS[action]).inc()


def _run_serial(pending: deque[_Attempt], retries: int, backoff_s: float,
                jitter: float, retry_timeouts: bool,
                finish: Callable[[int, TaskResult], None],
                collect_metrics: bool = False, trace=None,
                chaos: Optional[ChaosPolicy] = None,
                ledger: Optional[RunLedger] = None,
                clock: Callable[[], float] = time.monotonic,
                sleep: Callable[[float], None] = time.sleep) -> None:
    for item in pending:
        attempt = 0
        while True:
            attempt += 1
            started = time.perf_counter()
            queue_s = clock() - item.enqueued_at
            _note_injection(chaos, item.chaos_key, attempt)
            if ledger is not None:
                ledger.start(item.task, item.key, worker="serial")
            try:
                if chaos is not None:
                    chaos.apply_before_task(item.chaos_key, attempt,
                                            in_worker=False, sleep=sleep)
                value, metrics = _run_task_observed(item.task,
                                                    collect_metrics, trace)
            except InjectedHang as exc:
                # Serial stand-in for a hang: the parallel path would
                # time the task out, so mirror that outcome here.
                if retry_timeouts and attempt <= retries:
                    obs.counter("runtime.pool.timeout_retries").inc()
                    sleep(_backoff_delay(backoff_s, attempt, jitter,
                                         item.key))
                    continue
                finish(item.index, TaskResult(
                    task=item.task, key=item.key, outcome="timeout",
                    error=str(exc), wall_s=time.perf_counter() - started,
                    attempts=attempt, worker="serial", queue_s=queue_s))
                break
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc}"
                kind = classify_error(exc)
                if kind == "transient" and attempt <= retries:
                    sleep(_backoff_delay(backoff_s, attempt, jitter,
                                         item.key))
                    continue
                if kind == "permanent":
                    obs.counter("runtime.pool.permanent_failures").inc()
                finish(item.index, TaskResult(
                    task=item.task, key=item.key, outcome="failed",
                    error=error, wall_s=time.perf_counter() - started,
                    attempts=attempt, worker="serial", queue_s=queue_s))
                break
            finish(item.index, TaskResult(
                task=item.task, key=item.key, outcome="ok", value=value,
                wall_s=time.perf_counter() - started, attempts=attempt,
                worker="serial", queue_s=queue_s, metrics=metrics))
            break


def _run_parallel(pending: deque[_Attempt], jobs: int,
                  timeout_s: Optional[float], retries: int,
                  backoff_s: float, jitter: float, retry_timeouts: bool,
                  finish: Callable[[int, TaskResult], None],
                  collect_metrics: bool = False,
                  chaos: Optional[ChaosPolicy] = None,
                  ledger: Optional[RunLedger] = None,
                  clock: Callable[[], float] = time.monotonic,
                  sleep: Callable[[float], None] = time.sleep,
                  heartbeat_s: float = 5.0) -> None:
    running: dict = {}  # future -> (_Attempt, submitted_at)
    noted_injections: set = set()  # (key, attempt) chaos points counted
    abandoned: set = set()  # timed-out futures still occupying a worker
    broken_items: list[_Attempt] = []  # victims of the last pool break
    pool_restarts = 0
    # Every pool break charges at least one attempt, so restarts are
    # bounded by the total attempt budget (the +8 covers real crashes
    # racing the accounting).
    max_restarts = 8 + len(pending) * (retries + 1)
    last_heartbeat = clock()

    executor = ProcessPoolExecutor(max_workers=jobs)
    try:
        while pending or running:
            try:
                now = clock()
                abandoned = {f for f in abandoned if not f.done()}
                # Fill free (non-wedged) worker slots with eligible work,
                # so every submitted future starts running immediately --
                # which is what makes per-task timeouts meaningful.
                capacity = jobs - len(abandoned) - len(running)
                while pending and capacity > 0 and \
                        pending[0].eligible_at <= now:
                    item = pending.popleft()
                    _note_injection(chaos, item.chaos_key, item.attempt,
                                    noted_injections)
                    if ledger is not None:
                        ledger.start(item.task, item.key)
                    future = executor.submit(_worker_execute, item.task,
                                             collect_metrics, chaos,
                                             item.chaos_key, item.attempt)
                    running[future] = (item, clock())
                    capacity -= 1

                if ledger is not None and heartbeat_s > 0 and running \
                        and clock() - last_heartbeat >= heartbeat_s:
                    ledger.heartbeat(sorted({entry[0].key
                                             for entry in
                                             running.values()}))
                    last_heartbeat = clock()

                if not running:
                    if not pending:
                        break
                    if jobs - len(abandoned) <= 0:
                        # Every worker is wedged on an abandoned
                        # (timed-out) task.  Hung tasks often *do*
                        # finish eventually -- injected chaos hangs
                        # always do -- so grant one bounded grace
                        # period (well past the timeout that abandoned
                        # them) for a worker to free up before
                        # declaring the pool lost.
                        grace = (chaos.hang_s + 1.0
                                 if chaos is not None and
                                 chaos.hang_rate > 0.0
                                 else 10.0 * (timeout_s or 1.0))
                        freed, _ = wait(list(abandoned), timeout=grace,
                                        return_when=FIRST_COMPLETED)
                        if freed:
                            abandoned -= freed
                            continue
                        while pending:
                            item = pending.popleft()
                            finish(item.index, TaskResult(
                                task=item.task, key=item.key,
                                outcome="failed",
                                error="worker pool exhausted by timed-out "
                                      "tasks", attempts=item.attempt))
                        break
                    # Nothing running; wait for the next backoff window.
                    sleep(min(0.25, max(0.0, pending[0].eligible_at -
                                        clock())))
                    continue

                done, _ = wait(list(running), timeout=0.05,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    item, submitted_at = running.pop(future)
                    if isinstance(future.exception(), BrokenProcessPool):
                        broken_items.append(item)
                        continue
                    _handle_completion(future, item, retries, backoff_s,
                                       jitter, pending, finish,
                                       submitted_at - item.enqueued_at,
                                       clock)
                if broken_items:
                    raise BrokenProcessPool("worker process died")

                if timeout_s is not None:
                    now = clock()
                    for future in [f for f, (_, t0) in running.items()
                                   if now - t0 > timeout_s]:
                        item, started_at = running.pop(future)
                        if future.cancel():
                            # Never started (defensive; should not happen
                            # under the capacity accounting above) --
                            # requeue rather than falsely time it out.
                            pending.appendleft(_Attempt(
                                item.index, item.task, item.key,
                                item.attempt, 0.0,
                                enqueued_at=item.enqueued_at))
                            continue
                        abandoned.add(future)
                        if retry_timeouts and item.attempt <= retries:
                            obs.counter(
                                "runtime.pool.timeout_retries").inc()
                            pending.append(_Attempt(
                                item.index, item.task, item.key,
                                item.attempt + 1,
                                clock() + _backoff_delay(
                                    backoff_s, item.attempt, jitter,
                                    item.key),
                                enqueued_at=item.enqueued_at))
                            continue
                        finish(item.index, TaskResult(
                            task=item.task, key=item.key,
                            outcome="timeout",
                            error=f"timed out after {timeout_s:.3g}s",
                            wall_s=now - started_at,
                            attempts=item.attempt, worker=""))
            except BrokenProcessPool:
                # A worker died (real crash or injected).  Rebuild the
                # pool, charge an attempt to the task(s) the chaos
                # policy says crashed, and requeue innocent in-flight
                # victims at their current attempt.
                victims = broken_items + [entry[0]
                                          for entry in running.values()]
                broken_items, running = [], {}
                abandoned.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                pool_restarts += 1
                obs.counter("runtime.pool.pool_restarts").inc()
                crashed = {id(item) for item in victims
                           if chaos is not None and
                           chaos.task_action(item.chaos_key,
                                             item.attempt) == "crash"}
                if not crashed:
                    # No injected culprit identified: a real crash.
                    # Charge everyone -- we cannot know who died.
                    crashed = {id(item) for item in victims}
                for item in victims:
                    if id(item) not in crashed:
                        pending.append(_Attempt(
                            item.index, item.task, item.key,
                            item.attempt, 0.0,
                            enqueued_at=item.enqueued_at))
                    elif item.attempt <= retries:
                        pending.append(_Attempt(
                            item.index, item.task, item.key,
                            item.attempt + 1,
                            clock() + _backoff_delay(backoff_s,
                                                     item.attempt,
                                                     jitter, item.key),
                            enqueued_at=item.enqueued_at))
                    else:
                        finish(item.index, TaskResult(
                            task=item.task, key=item.key,
                            outcome="failed",
                            error="worker process died mid-task "
                                  "(crashed or killed)",
                            attempts=item.attempt, worker=""))
                if pool_restarts > max_restarts:
                    while pending:
                        item = pending.popleft()
                        finish(item.index, TaskResult(
                            task=item.task, key=item.key,
                            outcome="failed",
                            error=f"worker pool broke {pool_restarts} "
                                  "times; giving up",
                            attempts=item.attempt, worker=""))
                    break
                executor = ProcessPoolExecutor(max_workers=jobs)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _handle_completion(future, item: _Attempt, retries: int,
                       backoff_s: float, jitter: float, pending: deque,
                       finish: Callable[[int, TaskResult], None],
                       queue_s: float = 0.0,
                       clock: Callable[[], float] = time.monotonic
                       ) -> None:
    no_retry = False
    try:
        payload = future.result()
    except Exception as exc:  # task/result unpicklable, worker crashed
        message = f"{type(exc).__name__}: {exc}"
        if "ickl" in type(exc).__name__ or "ickl" in str(exc):
            message += ("; tasks must be built from module-level "
                        "callables to cross process boundaries "
                        "(use jobs=1 for closures)")
            no_retry = True
        payload = {"ok": False, "error": message, "pid": None,
                   "wall_s": 0.0}
    if payload.get("error_kind") == "permanent":
        no_retry = True
        obs.counter("runtime.pool.permanent_failures").inc()
    worker = f"pid:{payload.get('pid')}" if payload.get("pid") else ""
    if payload["ok"]:
        finish(item.index, TaskResult(
            task=item.task, key=item.key, outcome="ok",
            value=payload["value"], wall_s=payload["wall_s"],
            attempts=item.attempt, worker=worker, queue_s=queue_s,
            metrics=payload.get("metrics")))
    elif item.attempt <= retries and not no_retry:
        pending.append(_Attempt(
            item.index, item.task, item.key, item.attempt + 1,
            clock() + _backoff_delay(backoff_s, item.attempt, jitter,
                                     item.key),
            enqueued_at=item.enqueued_at))
    else:
        finish(item.index, TaskResult(
            task=item.task, key=item.key, outcome="failed",
            error=payload.get("error", "unknown worker failure"),
            wall_s=payload.get("wall_s", 0.0), attempts=item.attempt,
            worker=worker, queue_s=queue_s))
