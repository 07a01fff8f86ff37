"""Pluggable execution of independent per-file I/O operations.

The paper's scalable-read story is "open only the files your query
touches"; this module is the second half of that plan — issue those
per-file requests *concurrently*.  POSIX reads (and the CRC work that
follows them) release the GIL, so a thread pool gives real parallelism on
the real backend, exactly the per-file request concurrency that dominates
read throughput in production I/O stacks.

Two executors implement one tiny contract (:class:`IoExecutor.run`):

* :class:`SerialExecutor` — runs tasks one after another on the calling
  thread.  The default everywhere; behaviour is identical to the historic
  inline loops.
* :class:`ThreadedExecutor` — a ``concurrent.futures`` thread pool with a
  **bounded in-flight window**: at most ``max_inflight`` tasks are live
  at any moment, so a million-entry plan never materialises a million
  queued futures.  The **caller runs the last task of each call** itself,
  in the window slot a pool hand-off would have taken: it would otherwise
  only block in ``wait``.  A one-task call never touches the pool, and a
  two-task call makes one hand-off instead of two.

Determinism contract (what makes the two executors interchangeable):

* **result order** — outcomes are returned in submission order, whatever
  order tasks finished in;
* **retry/backoff** — each task carries its own retry state (the policy's
  deterministic ``(seed, attempt)`` jitter), so per-task retry schedules
  do not depend on scheduling;
* **observability** — each task records into its own *child*
  :class:`~repro.obs.recorder.Recorder` (:meth:`Recorder.child`), never
  directly into the caller's.  The caller merges children back in
  submission order, so spans/counters/events from concurrent tasks never
  interleave corruptly and event-derived views (``ReadReport``) are exact.

A task is any ``Callable[[Recorder], T]``; the recorder argument is the
task's private child recorder.  Exceptions are captured per task
(:attr:`TaskOutcome.error`), not raised by the executor — error policy
(strict raise vs. degraded skip) belongs to the caller.  With
``fail_fast=True`` no *new* tasks start once a failure is observed;
already-started tasks still complete, and unstarted ones come back with
``ran=False``.  Callers that fail fast must therefore stop consuming
outcomes at the first error, which both executors guarantee to place at
the same (earliest failing) index.

Concurrent submitters (the serving layer): one :class:`ThreadedExecutor`
is shared by every query of a multi-tenant service, so :meth:`run` is
fully reentrant across *threads* — each call keeps its own bounded
window and outcome slots over one shared, lazily created worker pool.
Sharing the pool is what bounds total thread count; per-call state is
what keeps callers isolated: a poisoned task fails only its own call's
outcome, never a sibling's window (each window tracks only its own
futures, and a worker that captured one call's failure moves straight on
to whatever task — anyone's — is queued next).  Calls from *inside* a
worker thread (nested per-file fan-out) run inline serially instead of
submitting, so recursion can never deadlock the pool waiting on itself.
A nested call from the caller's own inline task is an ordinary call from
a non-worker thread: it submits to the pool, whose workers never block
on it.
"""

from __future__ import annotations

import multiprocessing
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.obs.names import SPAN_EXECUTOR_RUN
from repro.obs.recorder import Recorder

__all__ = [
    "IoTask",
    "ProcessTask",
    "TaskOutcome",
    "IoExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "executor_for",
]

#: One independent unit of I/O work: called with its private child recorder.
IoTask = Callable[[Recorder], Any]


class ProcessTask:
    """A task that can ship to a worker *process* (or run locally).

    Serial and threaded executors simply call the task — ``local`` runs in
    this process exactly like any plain :data:`IoTask`.  The
    :class:`ProcessExecutor` instead pickles ``(fn, payload)`` to a worker
    process: ``fn`` must be a module-level callable
    ``fn(payload, recorder) -> value`` whose payload and return value are
    picklable; the worker's recorder is shipped back as a snapshot and
    absorbed into a child recorder parent-side, preserving the
    merge-in-submission-order obs contract.  ``finish`` (optional) runs on
    the parent after the worker returns — the hook a caller uses to copy a
    shared-memory result into its destination buffer.

    A ``ProcessTask`` whose payload turns out to be unpicklable degrades
    to its ``local`` form, so shipping is an optimisation, never a
    behaviour change.
    """

    __slots__ = ("local", "fn", "payload", "finish")

    def __init__(
        self,
        local: IoTask,
        fn: Callable[[Any, Recorder], Any],
        payload: Any,
        finish: Callable[[Any], Any] | None = None,
    ):
        self.local = local
        self.fn = fn
        self.payload = payload
        self.finish = finish

    def __call__(self, recorder: Recorder) -> Any:
        return self.local(recorder)


def _process_child(
    fn: Callable[[Any, Recorder], Any], payload: Any, rank: int
) -> tuple[Any, tuple, Exception | None]:
    """Worker-process shim: run ``fn`` against a fresh recorder.

    Returns ``(value, recorder_snapshot, error)`` — all picklable — so the
    parent can rebuild the exact child-recorder stream a local run would
    have produced.
    """
    recorder = Recorder(rank=rank)
    try:
        value = fn(payload, recorder)
    except Exception as exc:  # noqa: BLE001 — error policy is the caller's
        return None, recorder.snapshot(), exc
    return value, recorder.snapshot(), None


@dataclass
class TaskOutcome:
    """What one submitted task produced, in submission order.

    Exactly one of ``value``/``error`` is meaningful when ``ran`` is True;
    when ``ran`` is False the task was never started (fail-fast cut it)
    and ``recorder`` is None.
    """

    index: int
    value: Any = None
    error: Exception | None = None
    recorder: Recorder | None = None
    ran: bool = True

    @property
    def ok(self) -> bool:
        return self.ran and self.error is None


def _run_one(index: int, task: IoTask, parent: Recorder) -> TaskOutcome:
    """Execute one task against a fresh child recorder, capturing errors."""
    child = parent.child()
    try:
        value = task(child)
    except Exception as exc:  # noqa: BLE001 — error policy is the caller's
        return TaskOutcome(index, error=exc, recorder=child)
    return TaskOutcome(index, value=value, recorder=child)


def _pool_window(max_workers: int, max_inflight: int | None) -> tuple[int, int]:
    """Validated ``(max_workers, max_inflight)`` of a pooled executor; the
    window defaults to twice the workers."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    workers = int(max_workers)
    inflight = int(max_inflight) if max_inflight is not None else 2 * workers
    if inflight < workers:
        raise ValueError(
            f"max_inflight ({inflight}) must be >= max_workers ({workers})"
        )
    return workers, inflight


def _run_windowed(
    ntasks: int,
    max_inflight: int,
    fail_fast: bool,
    submit: Callable[[int], Future | TaskOutcome],
    consume: Callable[[Future, int], TaskOutcome],
) -> list[TaskOutcome]:
    """The bounded-window loop both pooled executors run.

    ``submit(index)`` starts task ``index`` and returns its future — or its
    outcome, if the task ran inline on the calling thread; ``consume(future,
    index)`` turns a finished future into the task's outcome.  At most
    ``max_inflight`` futures are pending at once; with ``fail_fast`` no
    task is submitted after a failure has been observed, and tasks never
    started keep their ``ran=False`` placeholder.
    """
    outcomes = [TaskOutcome(i, ran=False) for i in range(ntasks)]
    failed = False
    next_index = 0
    pending: dict[Future, int] = {}
    try:
        while True:
            while (
                next_index < ntasks
                and len(pending) < max_inflight
                and not (fail_fast and failed)
            ):
                started = submit(next_index)
                if isinstance(started, TaskOutcome):
                    outcomes[next_index] = started
                    failed = failed or started.error is not None
                else:
                    pending[started] = next_index
                next_index += 1
            if not pending:
                break
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                outcomes[index] = consume(future, index)
                failed = failed or outcomes[index].error is not None
    finally:
        # Never leave this call's futures running loose on the shared pool
        # (a BaseException — e.g. KeyboardInterrupt — in the loop above
        # must not let orphaned tasks race a sibling caller).
        if pending:
            for future in pending:
                future.cancel()
            done, _ = wait(set(pending))
            for future in done:
                if not future.cancelled():
                    outcomes[pending[future]] = consume(future, pending[future])
    return outcomes


class IoExecutor(ABC):
    """Executes a batch of independent I/O tasks; see the module docstring."""

    #: Display/span label: "serial" | "thread" | "process".
    mode: str = "serial"

    def _run_span(self, recorder: Recorder, tasks: int, queue_depth: int):
        """The per-batch ``executor.run`` span (queue-depth observability).

        Every executor emits exactly one span per non-empty batch, on the
        *caller's* thread, so serial and parallel runs stay span-stream
        parallel; the args carry what differs (worker count, in-flight
        window, mode).
        """
        return recorder.span(
            SPAN_EXECUTOR_RUN,
            cat="executor",
            tasks=tasks,
            workers=getattr(self, "max_workers", 1),
            queue_depth=queue_depth,
            mode=self.mode,
        )

    @abstractmethod
    def run(
        self,
        tasks: Sequence[IoTask],
        recorder: Recorder,
        fail_fast: bool = False,
    ) -> list[TaskOutcome]:
        """Run every task; outcomes come back in submission order.

        ``recorder`` is the caller's recorder — tasks get children of it
        (never the recorder itself).  Children are *not* merged here; the
        caller folds ``outcome.recorder`` back in submission order so the
        merged stream is executor-independent.
        """

    def shutdown(self) -> None:
        """Release any pooled resources (idempotent; no-op by default).

        An executor stays usable after shutdown — the next :meth:`run`
        recreates what it needs.
        """


class SerialExecutor(IoExecutor):
    """Tasks run inline, one at a time, on the calling thread."""

    mode = "serial"

    def run(
        self,
        tasks: Sequence[IoTask],
        recorder: Recorder,
        fail_fast: bool = False,
    ) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        outcomes: list[TaskOutcome] = []
        with self._run_span(recorder, len(tasks), 1):
            for index, task in enumerate(tasks):
                outcome = _run_one(index, task, recorder)
                outcomes.append(outcome)
                if fail_fast and outcome.error is not None:
                    outcomes.extend(
                        TaskOutcome(i, ran=False)
                        for i in range(index + 1, len(tasks))
                    )
                    break
        return outcomes

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadedExecutor(IoExecutor):
    """A shared thread pool with a per-call bounded submission window.

    ``max_workers`` threads execute tasks; each :meth:`run` call keeps at
    most ``max_inflight`` (default ``2 * max_workers``) tasks live at
    once, so plans of any length run in constant executor memory.  The
    last task of a call runs on the calling thread, inside that window.
    The pool is created lazily by the first call with two or more tasks
    and **persists across runs** — concurrent :meth:`run` calls (many
    queries of a serving layer) share the same ``max_workers`` threads
    instead of spawning a pool each, which bounds total thread count no
    matter how many callers are in flight.  All
    per-call state (window, outcome slots, fail-fast flag) is local to
    the call: one caller's failed task never wedges or fails a sibling
    caller's window.  :meth:`shutdown` joins the pool; the next run
    recreates it.
    """

    mode = "thread"

    def __init__(self, max_workers: int = 4, max_inflight: int | None = None):
        self.max_workers, self.max_inflight = _pool_window(max_workers, max_inflight)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Reentrancy marker: set while a pool worker is executing one of
        # our tasks, so a nested run() from inside a task degrades to an
        # inline serial loop instead of deadlocking the pool on itself.
        self._in_worker = threading.local()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-io",
                )
            return self._pool

    def _run_in_worker(
        self, index: int, task: IoTask, parent: Recorder
    ) -> TaskOutcome:
        self._in_worker.active = True
        try:
            return _run_one(index, task, parent)
        finally:
            self._in_worker.active = False

    def run(
        self,
        tasks: Sequence[IoTask],
        recorder: Recorder,
        fail_fast: bool = False,
    ) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        if getattr(self._in_worker, "active", False):
            # Called from one of our own worker threads: submitting would
            # wait on a pool slot this very thread occupies.  Inline serial
            # execution preserves the contract (same outcomes, same child-
            # recorder discipline) without consuming a second slot.
            return SerialExecutor().run(tasks, recorder, fail_fast)
        last = len(tasks) - 1
        pool = self._ensure_pool() if last else None

        def submit(index: int) -> Future | TaskOutcome:
            if index == last:
                # The caller would only block in wait(); it runs its own
                # last task instead, in the window slot a hop would take.
                return _run_one(index, tasks[index], recorder)
            return pool.submit(self._run_in_worker, index, tasks[index], recorder)

        with self._run_span(recorder, len(tasks), self.max_inflight):
            return _run_windowed(
                len(tasks),
                self.max_inflight,
                fail_fast,
                submit,
                lambda future, _i: future.result(),
            )

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"ThreadedExecutor(max_workers={self.max_workers}, "
            f"max_inflight={self.max_inflight})"
        )


class ProcessExecutor(IoExecutor):
    """A process pool that ships :class:`ProcessTask` descriptors off-GIL.

    CRC verification and columnar decode of large payloads are CPU work
    that Python threads serialise on the GIL; a worker *process* runs them
    truly in parallel.  The price is transport: tasks must describe their
    work as picklable ``(fn, payload)`` descriptors, and results come back
    by value (callers use shared memory for bulk data — see
    :meth:`repro.query.engine.QueryEngine.run`).

    The determinism contract is identical to :class:`ThreadedExecutor`:
    outcomes in submission order, a bounded in-flight window, per-task
    child recorders (rebuilt from worker-side snapshots) merged by the
    caller in submission order, and fail-fast leaving unstarted tasks
    ``ran=False``.

    Graceful degradation, in order:

    * a batch containing any plain (non-:class:`ProcessTask`) task runs
      entirely on an internal :class:`ThreadedExecutor` — callers that
      cannot describe their work picklably lose nothing;
    * a platform without the ``fork`` start method (worker processes
      inherit loaded modules and need no re-import) likewise falls back
      to threads;
    * a single task whose payload fails to pickle at submission runs its
      ``local`` form inline, in submission-order position.

    A broken pool (a worker killed mid-batch) fails the affected tasks'
    outcomes and is discarded; the next :meth:`run` starts a fresh pool.
    """

    mode = "process"

    def __init__(self, max_workers: int = 4, max_inflight: int | None = None):
        self.max_workers, self.max_inflight = _pool_window(max_workers, max_inflight)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._fallback = ThreadedExecutor(
            max_workers=self.max_workers, max_inflight=self.max_inflight
        )

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        with self._pool_lock:
            if self._pool is None:
                try:
                    ctx = multiprocessing.get_context("fork")
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers, mp_context=ctx
                    )
                except (ValueError, OSError):
                    return None
            return self._pool

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _consume(
        self, future: Future, task: ProcessTask, index: int, recorder: Recorder
    ) -> TaskOutcome:
        """Turn one worker result into a TaskOutcome with a rebuilt child."""
        child = recorder.child()
        try:
            value, snap, error = future.result()
        except BrokenProcessPool as exc:
            self._discard_pool()
            return TaskOutcome(index, error=exc, recorder=child)
        except Exception:  # noqa: BLE001 — transport, not task, failure
            # The worker shim catches task exceptions and returns them as
            # values, so anything *raised* here is transport-level: the
            # payload (or result) failed to pickle and ``fn`` may never
            # have run.  Shipping is an optimisation — fall back to the
            # task's local form, in submission-order position.
            return _run_one(index, task, recorder)
        child.absorb(snap)
        if error is not None:
            return TaskOutcome(index, error=error, recorder=child)
        if task.finish is not None:
            try:
                value = task.finish(value)
            except Exception as exc:  # noqa: BLE001
                return TaskOutcome(index, error=exc, recorder=child)
        return TaskOutcome(index, value=value, recorder=child)

    def run(
        self,
        tasks: Sequence[IoTask],
        recorder: Recorder,
        fail_fast: bool = False,
    ) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        if not all(isinstance(t, ProcessTask) for t in tasks):
            return self._fallback.run(tasks, recorder, fail_fast)
        pool = self._ensure_pool()
        if pool is None:
            return self._fallback.run(tasks, recorder, fail_fast)

        def submit(index: int) -> Future | TaskOutcome:
            task = tasks[index]
            try:
                return pool.submit(
                    _process_child, task.fn, task.payload, recorder.rank
                )
            except Exception:  # noqa: BLE001 — unpicklable payload
                # Inline degradation: run the local form now, in
                # submission-order position.
                return _run_one(index, task, recorder)

        with self._run_span(recorder, len(tasks), self.max_inflight):
            return _run_windowed(
                len(tasks),
                self.max_inflight,
                fail_fast,
                submit,
                lambda future, i: self._consume(future, tasks[i], i, recorder),
            )

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._fallback.shutdown()

    def __repr__(self) -> str:
        return (
            f"ProcessExecutor(max_workers={self.max_workers}, "
            f"max_inflight={self.max_inflight})"
        )


def executor_for(workers: int, mode: str = "thread") -> IoExecutor:
    """The executor a worker count selects (the ``--workers`` CLI mapping).

    ``workers <= 1`` is serial — a one-worker pool only adds overhead.
    ``mode`` selects the pool flavour above that: ``"thread"`` (default)
    for I/O-bound overlap, ``"process"`` (the ``--process-pool`` CLI flag)
    to move CRC+decode of large payloads off the GIL.
    """
    if mode not in ("thread", "process"):
        raise ValueError(f"unknown executor mode {mode!r}")
    if workers <= 1:
        return SerialExecutor()
    if mode == "process":
        return ProcessExecutor(max_workers=workers)
    return ThreadedExecutor(max_workers=workers)
