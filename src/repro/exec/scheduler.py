"""Task scheduler: process-pool fan-out with failure isolation.

The scheduler maps :class:`~repro.exec.tasks.Task` lists onto a
``concurrent.futures.ProcessPoolExecutor`` when ``jobs > 1``, preserving
submission order so results are deterministic regardless of completion
order.  It degrades gracefully to in-process execution when:

* ``jobs == 1`` (the default serial path — no pool, no overhead);
* running under pytest-xdist (nested pools fight over workers);
* the platform refuses to give us a pool (sandboxes without semaphores).

Failures are *isolated per task* rather than fail-stop:

* a task that raises lands in its :class:`TaskResult` as ``error`` —
  completed siblings keep their values and the run continues;
* ``task_timeout`` bounds each task's wall-clock in pool mode; an
  expired task is recorded as timed out, its workers are torn down, and
  unaffected tasks move to a fresh pool (inline execution cannot be
  preempted, so the timeout is only enforced when ``jobs > 1``);
* a broken pool (worker OOM-killed or crashed) retries the unfinished
  tasks on a fresh pool with exponential backoff up to ``retries``
  times; a task that keeps killing its worker is eventually marked
  failed instead of being rerun in-process where it could take the
  parent down with it.

Each task is timed where it runs, so per-task wall-clock lands in the
engine's metrics either way.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..guard.monitor import GuardConfig, GuardMonitor, guarding
from ..obs import TraceRecorder, recording
from .backoff import DEFAULT_CAP, backoff_delay
from .tasks import Task, execute_task

__all__ = ["Scheduler", "TaskResult", "effective_jobs"]

#: How often pool workers refresh their heartbeat file, and how often
#: the parent polls futures when a cancel event or watchdog is armed.
_HEARTBEAT_INTERVAL_S = 0.25
_POLL_INTERVAL_S = 0.1


@dataclass
class TaskResult:
    """One executed task: payload plus where/how long it ran.

    ``error`` is None for a successful task; otherwise a one-line
    ``ExcType: message`` diagnostic (the payload is None then).
    ``interrupted`` marks a task that never got to finish — a graceful
    shutdown drained it or the watchdog declared its worker hung; such
    a task is *resumable* (journalled as interrupted, re-dispatched by
    ``--resume``), unlike a failed one.
    ``trace`` is the task-local recorder document (span, virtual-clock
    events, metrics) when the task asked for tracing — recorded where
    the task ran and shipped back as plain data, so pool and inline
    execution produce identical traces.
    ``guard`` is the task-local guard document (sentinel/contract
    events, remediation chain) when the task ran under ``--guard`` and
    the monitor saw anything — same ship-back-as-data discipline.
    """

    task: Task
    value: Any
    seconds: float
    worker: str  # "inline" or "pool"
    error: Optional[str] = None
    attempts: int = 1
    trace: Optional[dict] = None
    guard: Optional[dict] = None
    interrupted: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None and not self.interrupted


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: None/0 means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one per CPU)")
    return jobs


def _under_pytest_xdist() -> bool:
    return "PYTEST_XDIST_WORKER" in os.environ


def _timed_execute(task: Task) -> tuple:
    """Run one task; returns ``(value, seconds, trace_doc, guard_doc)``.

    When the task asks for tracing, a task-local recorder is installed
    for the duration — the MPI simulator and machine models the figure
    code drives report into it — and its plain-data snapshot rides back
    with the result (across the process boundary in pool mode).  When
    the task carries a guard mode, a task-local
    :class:`~repro.guard.GuardMonitor` is installed the same way; its
    document (``None`` for a clean task) rides back alongside.
    """
    monitor = (
        GuardMonitor(GuardConfig(
            mode=task.guard_mode, cadence=task.guard_cadence
        ))
        if getattr(task, "guard_mode", None)
        else None
    )
    if not task.trace:
        t0 = time.perf_counter()
        with guarding(monitor):
            value = execute_task(task)
        seconds = time.perf_counter() - t0
        return value, seconds, None, monitor.as_dict() if monitor else None
    recorder = TraceRecorder()
    t0 = time.perf_counter()
    with recording(recorder), guarding(monitor):
        with recorder.span(
            task.label,
            category="task",
            experiment=task.experiment,
            kind=task.kind,
            index=task.index,
        ):
            value = execute_task(task)
    seconds = time.perf_counter() - t0
    return (
        value, seconds, recorder.as_dict(),
        monitor.as_dict() if monitor else None,
    )


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _heartbeat_loop(hb_dir: str) -> None:  # pragma: no cover - worker side
    """Daemon thread in each pool worker: touch a per-pid heartbeat file
    every :data:`_HEARTBEAT_INTERVAL_S` so the parent's watchdog can
    tell a live worker from a hung/stopped one."""
    path = os.path.join(hb_dir, f"hb-{os.getpid()}")
    while True:
        try:
            with open(path, "w") as f:
                f.write(str(time.time()))
        except OSError:
            return  # heartbeat dir removed: the run is over
        time.sleep(_HEARTBEAT_INTERVAL_S)


def _orphan_watch(parent: int) -> None:  # pragma: no cover - worker side
    """Daemon thread in each pool worker: exit once the parent is gone,
    so a SIGKILLed run leaves no idle orphans behind."""
    while os.getppid() == parent:
        time.sleep(_HEARTBEAT_INTERVAL_S)
    os._exit(1)


def _worker_init(
    paths: List[str], hb_dir: Optional[str] = None
) -> None:  # pragma: no cover - worker side
    for p in paths:
        if p not in sys.path:
            sys.path.append(p)
    threading.Thread(
        target=_orphan_watch, args=(os.getppid(),), daemon=True
    ).start()
    if hb_dir is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(hb_dir,), daemon=True
        ).start()


class Scheduler:
    """Run task lists, in parallel when asked and possible.

    ``fallback_reason`` records why the last :meth:`map` call ran
    inline (or gave up on the pool), if it did — surfaced in
    ``--stats`` so a silent fallback is still observable.
    ``task_timeout`` is the per-task wall-clock bound (pool mode only);
    ``retries`` bounds fresh-pool retries after a broken pool, with a
    deterministic jittered exponential delay between them
    (:func:`~repro.exec.backoff.backoff_delay` keyed on the first
    pending task — ``backoff`` is the base window, ``backoff_cap`` the
    ceiling, so the retry schedule replays identically run-to-run).

    Graceful shutdown: when ``cancel_event`` (a :class:`threading.Event`,
    typically set by a SIGINT/SIGTERM handler) fires mid-map, the
    scheduler *drains* — no new task starts, in-flight tasks get
    ``grace`` seconds to finish, then the pool is terminated and every
    unfinished task comes back with ``interrupted=True`` so the journal
    can record it as resumable rather than lost.  ``heartbeat_timeout``
    arms a watchdog: pool workers heartbeat every
    :data:`_HEARTBEAT_INTERVAL_S` seconds, and a worker silent for
    longer than the timeout is declared hung — its pool is torn down
    and unfinished tasks are marked interrupted (not failed).
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        task_timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.25,
        backoff_cap: float = DEFAULT_CAP,
        cancel_event: Optional[threading.Event] = None,
        grace: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = effective_jobs(jobs)
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if grace < 0:
            raise ValueError("grace must be >= 0")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive or None")
        if backoff <= 0:
            raise ValueError("backoff must be positive")
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = max(backoff, backoff_cap)
        self.cancel_event = cancel_event
        self.grace = grace
        self.heartbeat_timeout = heartbeat_timeout
        self.fallback_reason: Optional[str] = None
        self.interrupted = False
        #: Streaming hook: called exactly once per task with its final
        #: :class:`TaskResult`, *the moment it is known* (completion
        #: order, not submission order).  The engine points this at the
        #: journal so a completion is on stable storage before the next
        #: task is awaited — the write-ahead-log contract; a batch
        #: "journal everything after map()" would lose every finished
        #: task to a SIGKILL mid-run.
        self.on_result: Optional[Callable[[TaskResult], None]] = None

    def _cancelled(self) -> bool:
        return self.cancel_event is not None and self.cancel_event.is_set()

    def _emit(self, result: TaskResult) -> TaskResult:
        if self.on_result is not None:
            self.on_result(result)
        return result

    @staticmethod
    def _interrupted_result(
        task: Task, reason: str, worker: str = "pool"
    ) -> TaskResult:
        return TaskResult(
            task, None, 0.0, worker=worker,
            error=f"Interrupted: {reason}", interrupted=True,
        )

    # -- internals --------------------------------------------------------
    def _run_inline(self, tasks: Sequence[Task]) -> List[TaskResult]:
        out: List[TaskResult] = []
        for i, task in enumerate(tasks):
            if self._cancelled():
                self.interrupted = True
                # Drain: the task that was running finished (inline
                # execution is never preempted mid-task — that is its
                # grace period); everything not yet started is handed
                # back interrupted for the journal to record.
                out.extend(
                    self._emit(self._interrupted_result(
                        t, "graceful shutdown (not started)",
                        worker="inline",
                    ))
                    for t in tasks[i:]
                )
                break
            t0 = time.perf_counter()
            try:
                value, seconds, trace, guard = _timed_execute(task)
            except KeyboardInterrupt:
                # No signal handler installed (library use): treat the
                # interrupt as a shutdown request — this task and the
                # rest come back interrupted instead of exploding.
                self.interrupted = True
                out.extend(
                    self._emit(self._interrupted_result(
                        t, "KeyboardInterrupt", worker="inline"
                    ))
                    for t in tasks[i:]
                )
                break
            except Exception as exc:
                out.append(
                    self._emit(TaskResult(
                        task, None, time.perf_counter() - t0,
                        worker="inline", error=_format_error(exc),
                    ))
                )
            else:
                out.append(
                    self._emit(TaskResult(
                        task, value, seconds, worker="inline", trace=trace,
                        guard=guard,
                    ))
                )
        return out

    def _mp_context(self):
        # fork keeps the already-imported numpy/repro hot in workers;
        # fall back to the platform default (spawn on macOS/Windows).
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool whose task blew its deadline.

        The executor has no public kill switch and ``shutdown(wait=True)``
        would block on the runaway task, so terminate the worker
        processes directly; unfinished siblings are retried elsewhere.
        """
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass

    def _heartbeat_stale(self, hb_dir: str, started: float) -> bool:
        """True when the watchdog should fire: some worker's heartbeat
        file (or, early on, its first heartbeat) is overdue."""
        assert self.heartbeat_timeout is not None
        now = time.time()
        beats = []
        try:
            with os.scandir(hb_dir) as it:
                beats = [e.stat().st_mtime for e in it
                         if e.name.startswith("hb-")]
        except OSError:  # pragma: no cover - hb dir vanished
            return False
        if not beats:
            # No worker has beaten yet: only stale once startup itself
            # has blown the timeout.
            return now - started > self.heartbeat_timeout
        return now - min(beats) > self.heartbeat_timeout

    def _drain(
        self,
        tasks: Sequence[Task],
        futures: List,
        out: List[Optional[TaskResult]],
        pool: ProcessPoolExecutor,
        reason: str,
        grace: Optional[float] = None,
    ) -> None:
        """Graceful shutdown of one pool attempt: cancel what has not
        started, give in-flight tasks ``grace`` seconds, then terminate
        the workers.  Every unfinished slot is filled with an
        ``interrupted`` result — nothing is silently lost."""
        self.interrupted = True
        for i, (task, fut) in enumerate(zip(tasks, futures)):
            if out[i] is None and fut.cancel():
                out[i] = self._emit(self._interrupted_result(
                    task, f"{reason} (not started)"
                ))
        deadline = time.monotonic() + (self.grace if grace is None else grace)
        killed = False
        for i, (task, fut) in enumerate(zip(tasks, futures)):
            if out[i] is not None:
                continue
            try:
                value, seconds, trace, guard = fut.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                out[i] = self._emit(TaskResult(
                    task, value, seconds, worker="pool", trace=trace,
                    guard=guard,
                ))
            except FuturesTimeoutError:
                if not killed:
                    self._kill_workers(pool)
                    killed = True
                out[i] = self._emit(self._interrupted_result(
                    task, f"{reason} (grace period expired)"
                ))
            except BrokenProcessPool:
                out[i] = self._emit(self._interrupted_result(task, reason))
            except Exception as exc:
                out[i] = self._emit(TaskResult(
                    task, None, 0.0, worker="pool",
                    error=_format_error(exc),
                ))

    def _run_pool(
        self, tasks: Sequence[Task]
    ) -> List[Optional[TaskResult]]:
        """One pool attempt; ``None`` entries need a retry (pool broke
        before their future resolved, through no fault of their own)."""
        workers = min(self.jobs, len(tasks))
        # The poll loop (and its heartbeat/cancel checks) only runs when
        # someone armed it; otherwise the blocking fast path below is
        # byte-for-byte the pre-shutdown behaviour.
        monitored = (
            self.cancel_event is not None or self.heartbeat_timeout is not None
        )
        hb_dir = (
            tempfile.mkdtemp(prefix="repro-hb-")
            if self.heartbeat_timeout is not None else None
        )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._mp_context(),
            initializer=_worker_init,
            initargs=(list(sys.path), hb_dir),
        )
        out: List[Optional[TaskResult]] = [None] * len(tasks)
        broken = False
        started = time.time()
        try:
            futures = [pool.submit(_timed_execute, t) for t in tasks]
            for i, (task, future) in enumerate(zip(tasks, futures)):
                if broken:
                    future.cancel()
                    continue
                if self.interrupted:
                    break  # _drain already filled the remaining slots
                if not monitored:
                    try:
                        value, seconds, trace, guard = future.result(
                            timeout=self.task_timeout
                        )
                        out[i] = self._emit(TaskResult(
                            task, value, seconds, worker="pool", trace=trace,
                            guard=guard,
                        ))
                    except FuturesTimeoutError:
                        out[i] = self._emit(self._timeout_result(task))
                        self._kill_workers(pool)
                        broken = True
                    except BrokenProcessPool:
                        broken = True  # unfinished tasks retry elsewhere
                    except Exception as exc:
                        out[i] = self._emit(TaskResult(
                            task, None, 0.0, worker="pool",
                            error=_format_error(exc),
                        ))
                    continue
                # Monitored wait: poll so cancel/watchdog can cut in.
                wait_deadline = (
                    None if self.task_timeout is None
                    else time.monotonic() + self.task_timeout
                )
                while out[i] is None and not broken and not self.interrupted:
                    if self._cancelled():
                        self._drain(
                            tasks, futures, out, pool, "graceful shutdown"
                        )
                        break
                    if hb_dir is not None and self._heartbeat_stale(
                            hb_dir, started):
                        # Hung worker: nothing more will finish — kill
                        # the pool and journal the rest as interrupted.
                        self._kill_workers(pool)
                        self._drain(
                            tasks, futures, out, pool,
                            "watchdog: worker heartbeat stale", grace=0.5,
                        )
                        break
                    remaining = (
                        None if wait_deadline is None
                        else wait_deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        out[i] = self._emit(self._timeout_result(task))
                        self._kill_workers(pool)
                        broken = True
                        break
                    slice_s = (
                        _POLL_INTERVAL_S if remaining is None
                        else min(_POLL_INTERVAL_S, remaining)
                    )
                    try:
                        value, seconds, trace, guard = future.result(
                            timeout=slice_s
                        )
                        out[i] = self._emit(TaskResult(
                            task, value, seconds, worker="pool", trace=trace,
                            guard=guard,
                        ))
                    except FuturesTimeoutError:
                        continue  # poll again
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:
                        out[i] = self._emit(TaskResult(
                            task, None, 0.0, worker="pool",
                            error=_format_error(exc),
                        ))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)
        return out

    def _timeout_result(self, task: Task) -> TaskResult:
        return TaskResult(
            task, None, float(self.task_timeout), worker="pool",
            error=f"TimeoutError: task exceeded "
            f"--task-timeout {self.task_timeout:g}s",
        )

    # -- public -----------------------------------------------------------
    def map(self, tasks: Sequence[Task]) -> List[TaskResult]:
        """Execute all tasks; results come back in submission order.

        After a graceful shutdown or watchdog trip, ``interrupted`` is
        True and the affected tasks carry ``interrupted=True`` — they
        are resumable, not failed."""
        self.fallback_reason = None
        self.interrupted = False
        if not tasks:
            return []
        if self.jobs <= 1:
            return self._run_inline(tasks)
        if len(tasks) == 1:
            self.fallback_reason = "single task"
            return self._run_inline(tasks)
        if _under_pytest_xdist():
            self.fallback_reason = "pytest-xdist worker"
            return self._run_inline(tasks)

        results: List[Optional[TaskResult]] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        while pending:
            try:
                if attempt == 0:
                    chunk = self._run_pool([tasks[i] for i in pending])
                else:
                    # Retry after a broken pool: one single-worker pool
                    # per task, so a deterministic crasher only takes
                    # itself down and its siblings complete normally.
                    chunk = [self._run_pool([tasks[i]])[0] for i in pending]
            except (OSError, PermissionError, ValueError, ImportError) as exc:
                # No semaphores / fork refused / restricted sandbox.
                self.fallback_reason = f"process pool unavailable ({exc})"
                for i, r in zip(pending, self._run_inline(
                        [tasks[i] for i in pending])):
                    results[i] = r
                return results  # type: ignore[return-value]
            still = []
            for i, r in zip(pending, chunk):
                if r is None:
                    still.append(i)
                else:
                    r.attempts = attempt + 1
                    results[i] = r
            pending = still
            if not pending:
                break
            if self._cancelled():
                # Shutdown arrived between retry attempts: hand the
                # still-unfinished tasks back as interrupted.
                self.interrupted = True
                for i in pending:
                    results[i] = self._emit(self._interrupted_result(
                        tasks[i], "graceful shutdown (retry abandoned)"
                    ))
                break
            if attempt >= self.retries:
                self.fallback_reason = (
                    "process pool broke mid-run; retries exhausted"
                )
                for i in pending:
                    results[i] = self._emit(TaskResult(
                        tasks[i], None, 0.0, worker="pool",
                        attempts=attempt + 1,
                        error="BrokenProcessPool: worker crashed and "
                        f"{self.retries} retr"
                        f"{'y was' if self.retries == 1 else 'ies were'} "
                        "exhausted",
                    ))
                break
            # Deterministic jittered delay keyed on the first pending
            # task: the same run replays the same retry schedule.
            time.sleep(backoff_delay(
                tasks[pending[0]].label, attempt,
                base=self.backoff, cap=self.backoff_cap,
            ))
            attempt += 1
        return results  # type: ignore[return-value]
