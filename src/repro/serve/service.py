"""The multi-tenant query service: admission, batching windows, dispatch.

:class:`QueryService` serves spatial queries from many concurrent clients
over shared open :class:`~repro.dataset.Dataset` facades:

* **admission control** at :meth:`submit` — a closed service, a full
  pending queue, or an exhausted per-client quota rejects *at the door*
  (:class:`~repro.errors.AdmissionError`, counted under
  ``server.rejected``); an admitted query is always executed;
* a **batching window** — the dispatcher collects queries that arrive
  within ``batch_window`` seconds (up to ``max_batch``) into one batch,
  trading a bounded sliver of latency for cross-query I/O coalescing;
* **batched planning** — each batch is planned with the dataset's shared
  :class:`~repro.query.engine.QueryEngine`, files wanted by two or more
  queries are pre-read once (:func:`repro.serve.batch.stage_plans`), and
  every query then executes against the shared stage, bit-identical to
  running it alone;
* **per-query isolation** — each query records into its own child
  recorder (merged into the service recorder afterwards), gets its own
  :class:`~repro.query.engine.QueryResult` future, and a failing query
  fails only its own future.

Everything observable lands on one :class:`~repro.obs.recorder.Recorder`
under the ``server.*`` names (see OBSERVABILITY.md): queries and bytes
per client, batches and widths, queue depth at dispatch, admission
rejections by reason, and backend ops saved by staging.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.dataset import Dataset, as_dataset
from repro.errors import AdmissionError, DeadlineExceededError, ServiceError
from repro.io.resilience import Deadline
from repro.obs.names import (
    DEADLINE_SHED,
    EV_DEADLINE_SHED,
    EV_SERVER_REJECT,
    SERVER_BATCH_WIDTH,
    SERVER_BATCHES,
    SERVER_CLIENT_BYTES,
    SERVER_OPS_SAVED,
    SERVER_QUERIES,
    SERVER_QUEUE_DEPTH,
    SERVER_REJECTED,
    SERVER_STAGED_FILES,
    SPAN_SERVER_BATCH,
)
from repro.obs.recorder import Recorder
from repro.query.engine import QueryResult
from repro.serve.batch import stage_plans

__all__ = ["QueryService", "ClientQuota"]


@dataclass(frozen=True)
class ClientQuota:
    """Per-client admission limits (``None`` disables a limit)."""

    #: queries a client may have admitted-but-unfinished at once.
    max_inflight: int | None = None
    #: cumulative result bytes a client may be delivered over the
    #: service's lifetime (a hard byte budget, the openPMD/Darshan-style
    #: per-consumer traffic accounting turned into a control).
    max_bytes: int | None = None


@dataclass
class _PendingQuery:
    """One admitted query waiting in (or leaving) the batching window."""

    client: str
    dataset: str
    box: Any
    max_level: int | None
    attrs: tuple[str, ...] | None
    where: dict[str, tuple[float, float]] | None
    exact: bool
    future: "Future[QueryResult]"
    deadline: Deadline | None = None
    submitted: float = field(default_factory=time.monotonic)


class QueryService:
    """Bounded-concurrency batched query serving over shared datasets.

    ``datasets`` is one :class:`~repro.dataset.Dataset` (or backend/path)
    or a mapping of name -> dataset for multi-dataset serving; queries
    address a dataset by name (a single dataset is named ``"default"``).
    Facades are shared across all clients — their memoization and the
    executor must be (and are) thread-safe.

    ``batch_window`` is the coalescing window in seconds: the dispatcher
    waits that long after the first pending query for companions before
    dispatching (``0`` dispatches immediately — no cross-query batching
    unless queries are already queued).  ``max_batch`` caps batch width,
    ``max_pending`` the admission queue.  ``max_workers`` service worker
    threads execute batches concurrently.  :meth:`submit` wakes the
    dispatcher only on the two transitions it waits for (queue non-empty,
    queue at ``max_batch``), so a burst costs one or two wake-ups, not one
    per query; :meth:`close` wakes it to drain.

    With ``autostart=False`` the service admits queries but dispatches
    nothing until :meth:`start` — tests and benchmarks use this to build
    full batches deterministically.
    """

    def __init__(
        self,
        datasets: "Dataset | Mapping[str, Dataset] | object",
        *,
        max_workers: int = 2,
        batch_window: float = 0.002,
        max_batch: int = 16,
        max_pending: int = 256,
        quota: ClientQuota | None = None,
        recorder: Recorder | None = None,
        autostart: bool = True,
    ):
        if isinstance(datasets, Mapping):
            named = {str(k): as_dataset(v) for k, v in datasets.items()}
        else:
            named = {"default": as_dataset(datasets)}
        if not named:
            raise ServiceError("a QueryService needs at least one dataset")
        for ds in named.values():
            ds.load()
        self._datasets = named
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if batch_window < 0:
            raise ServiceError(f"batch_window must be >= 0, got {batch_window}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.quota = quota if quota is not None else ClientQuota()
        self.recorder = recorder if recorder is not None else Recorder(rank=-1)
        self._cond = threading.Condition()
        self._queue: deque[_PendingQuery] = deque()
        self._closed = False
        self._inflight: dict[str, int] = {}
        self._client_bytes: dict[str, int] = {}
        self._latencies: list[float] = []
        self._queries_done = 0
        self._batches = 0
        self._batch_width_sum = 0
        self._ops_saved = 0
        self._staged_files = 0
        self._drained = 0
        self._cancelled = 0
        #: dispatched batches (pool future + members) still possibly live;
        #: close()'s force-cancel path needs to find stragglers.
        self._batch_futures: list[tuple[Future, list[_PendingQuery]]] = []
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher: threading.Thread | None = None
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Start the dispatcher (idempotent).  Queries admitted before
        ``start`` are dispatched as soon as it runs — submitting a burst
        against a stopped service then starting it yields maximal batches."""
        with self._cond:
            if self._closed:
                raise ServiceError("service is closed")
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-serve-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
        return self

    def close(self, drain_timeout: float | None = None) -> None:
        """Stop admitting, drain admitted queries, release the workers.

        Clean-shutdown contract: every future obtained from :meth:`submit`
        before ``close`` is resolved (result or exception) by the time
        ``close`` returns.  With ``drain_timeout=None`` the drain blocks
        until every admitted query has executed (the historical behaviour).
        With a timeout, queries that have not finished within
        ``drain_timeout`` seconds are **force-cancelled**: their futures
        fail with :class:`~repro.errors.ServiceError` immediately — a dead
        remote store can therefore never wedge shutdown.  Queries that
        completed during the drain count as *drained*, force-failed ones
        as *cancelled*; :meth:`stats` reports both.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            dispatcher = self._dispatcher
            done_at_close = self._queries_done
            self._cond.notify_all()
        if dispatcher is not None:
            dispatcher.join(drain_timeout)
        else:
            # Never started: fail the queue rather than strand its futures.
            self._cancel_all(
                ServiceError("service closed before dispatch started")
            )
        if drain_timeout is None:
            self._pool.shutdown(wait=True)
        else:
            # Bounded drain: give in-flight batches what is left of the
            # budget, then cut every straggler loose.
            stop = time.monotonic() + max(0.0, drain_timeout)
            for fut, _batch in self._snapshot_batches():
                remaining = stop - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    fut.exception(timeout=remaining)
                except Exception:  # noqa: BLE001 — timeout or batch failure
                    pass
            self._cancel_all(
                ServiceError(
                    f"query cancelled: close() drain timeout "
                    f"({drain_timeout}s) expired"
                )
            )
            self._pool.shutdown(wait=False, cancel_futures=True)
        with self._cond:
            self._drained += self._queries_done - done_at_close

    def _snapshot_batches(self) -> list[tuple[Future, list[_PendingQuery]]]:
        with self._cond:
            return list(self._batch_futures)

    def _cancel_all(self, exc: ServiceError) -> None:
        """Fail every unresolved admitted query with ``exc`` (see close)."""
        with self._cond:
            queued = list(self._queue)
            self._queue.clear()
            batches = list(self._batch_futures)
        for fut, batch in batches:
            fut.cancel()  # keeps a not-yet-started batch from ever running
            for pending in batch:
                self._cancel(pending, exc)
        for pending in queued:
            self._cancel(pending, exc)

    def _cancel(self, pending: _PendingQuery, exc: ServiceError) -> None:
        with self._cond:
            if pending.future.done():
                return
            self._inflight[pending.client] = max(
                0, self._inflight.get(pending.client, 0) - 1
            )
            self._cancelled += 1
            pending.future.set_exception(exc)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- admission -----------------------------------------------------------

    def _reject(self, client: str, reason: str, detail: str) -> AdmissionError:
        self.recorder.add(SERVER_REJECTED, 1, key=(reason,))
        self.recorder.event(EV_SERVER_REJECT, client=client, reason=reason)
        return AdmissionError(reason, detail)

    def submit(
        self,
        box,
        *,
        client: str = "anon",
        dataset: str = "default",
        max_level: int | None = None,
        attrs: tuple[str, ...] | list[str] | None = None,
        where: dict[str, tuple[float, float]] | None = None,
        exact: bool = True,
        deadline_s: float | None = None,
    ) -> "Future[QueryResult]":
        """Admit one spatial query; returns a future of its
        :class:`~repro.query.engine.QueryResult`.

        Admission is all-or-nothing and synchronous: on return the query
        is queued for the batching window, or an
        :class:`~repro.errors.AdmissionError` was raised (and counted).
        The dispatcher is woken only when this query makes the queue
        non-empty or fills it to ``max_batch``; any other admission joins
        the open window without a thread switch.

        ``deadline_s`` gives the query an end-to-end budget: a budget the
        service knows it cannot meet (it does not even cover the batching
        window) is shed *at admission* with reason ``"deadline"``; an
        admitted deadline rides the query into the engine, where the
        remote tier's per-request timeouts, retries, and degraded reads
        all honour it.  A deadline that expires while the query waits in
        the queue fails that query's future with
        :class:`~repro.errors.DeadlineExceededError` at dispatch.
        """
        client = str(client)
        deadline: Deadline | None = None
        if deadline_s is not None:
            if deadline_s <= self.batch_window:
                raise self._reject(
                    client,
                    "deadline",
                    f"deadline of {deadline_s * 1e3:.1f} ms cannot be met: "
                    f"it does not cover the {self.batch_window * 1e3:.1f} ms "
                    "batching window",
                )
            deadline = Deadline.after(deadline_s)
        with self._cond:
            if self._closed:
                raise self._reject(client, "closed", "service is closed")
            if dataset not in self._datasets:
                raise self._reject(
                    client,
                    "unknown-dataset",
                    f"unknown dataset {dataset!r}; serving "
                    f"{sorted(self._datasets)}",
                )
            if len(self._queue) >= self.max_pending:
                raise self._reject(
                    client,
                    "queue-full",
                    f"pending queue is full ({self.max_pending})",
                )
            quota = self.quota
            if (
                quota.max_inflight is not None
                and self._inflight.get(client, 0) >= quota.max_inflight
            ):
                raise self._reject(
                    client,
                    "client-inflight",
                    f"client {client!r} already has "
                    f"{self._inflight.get(client, 0)} queries in flight "
                    f"(limit {quota.max_inflight})",
                )
            if (
                quota.max_bytes is not None
                and self._client_bytes.get(client, 0) >= quota.max_bytes
            ):
                raise self._reject(
                    client,
                    "client-bytes",
                    f"client {client!r} exhausted its byte budget "
                    f"({self._client_bytes.get(client, 0)} of "
                    f"{quota.max_bytes})",
                )
            attrs_t = tuple(attrs) if attrs is not None else None
            pending = _PendingQuery(
                client=client,
                dataset=dataset,
                box=box,
                max_level=max_level,
                attrs=attrs_t,
                where=dict(where) if where else None,
                exact=exact,
                future=Future(),
                deadline=deadline,
            )
            self._inflight[client] = self._inflight.get(client, 0) + 1
            self.recorder.add(SERVER_QUERIES, 1, key=(client,))
            self._queue.append(pending)
            # The dispatcher waits for exactly two transitions: an empty
            # queue turning non-empty, and a window filling to max_batch.
            # Waking it on any other submit hands it the GIL for nothing.
            if len(self._queue) in (1, self.max_batch):
                self._cond.notify_all()
        return pending.future

    def query(self, box, **kwargs: Any) -> QueryResult:
        """Synchronous :meth:`submit` — blocks for the result."""
        return self.submit(box, **kwargs).result()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                # Batch collection: wait out the window (or until the
                # batch is full / the service closes) for companions.
                deadline = time.monotonic() + self.batch_window
                while len(self._queue) < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                depth = len(self._queue)
                batch = [
                    self._queue.popleft()
                    for _ in range(min(depth, self.max_batch))
                ]
            fut = self._pool.submit(self._run_batch, batch, depth)
            with self._cond:
                self._batch_futures = [
                    (f, b) for f, b in self._batch_futures if not f.done()
                ]
                self._batch_futures.append((fut, batch))

    def _run_batch(self, batch: list[_PendingQuery], depth: int) -> None:
        try:
            self._run_batch_inner(batch, depth)
        finally:
            # Clean-shutdown backstop: whatever went wrong above, no
            # admitted query may be left with an unresolved future.
            for pending in batch:
                if not pending.future.done():
                    self._finish(
                        pending,
                        None,
                        ServiceError(
                            "internal dispatch failure; query not executed"
                        ),
                    )

    def _run_batch_inner(self, batch: list[_PendingQuery], depth: int) -> None:
        with self.recorder.span(
            SPAN_SERVER_BATCH, cat="serve", width=len(batch), queue_depth=depth
        ):
            with self._cond:
                self._batches += 1
                self._batch_width_sum += len(batch)
            self.recorder.add(SERVER_BATCHES, 1)
            self.recorder.add(SERVER_BATCH_WIDTH, len(batch))
            self.recorder.add(SERVER_QUEUE_DEPTH, depth)
            # Plan every query up front; a plan failure fails only its own
            # future and drops it from the batch.
            planned: list[tuple[_PendingQuery, Any]] = []
            for pending in batch:
                if pending.deadline is not None and pending.deadline.expired():
                    # Expired while queued: shed before any planning or I/O.
                    self.recorder.add(DEADLINE_SHED, 1)
                    self.recorder.event(
                        EV_DEADLINE_SHED, path=pending.dataset, op="serve"
                    )
                    self._finish(
                        pending,
                        None,
                        DeadlineExceededError(
                            f"deadline of {pending.deadline.total_s * 1e3:.0f} "
                            "ms expired while the query was queued"
                        ),
                    )
                    continue
                engine = self._datasets[pending.dataset].engine()
                try:
                    plan = engine.plan_box(
                        pending.box,
                        max_level=pending.max_level,
                        attrs=pending.attrs,
                        where=pending.where,
                    )
                except Exception as exc:  # noqa: BLE001 — per-query isolation
                    self._finish(pending, None, exc)
                    continue
                planned.append((pending, plan))
            # Stage shared files per dataset, then execute each query
            # against its dataset's stage.
            by_dataset: dict[str, list[tuple[_PendingQuery, Any]]] = {}
            for pending, plan in planned:
                by_dataset.setdefault(pending.dataset, []).append((pending, plan))
            for name, group in by_dataset.items():
                engine = self._datasets[name].engine()
                staged = None
                if len(group) > 1:
                    batch_recorder = self.recorder.child()
                    staged = stage_plans(
                        engine,
                        [(plan, pending.exact) for pending, plan in group],
                        recorder=batch_recorder,
                    )
                    self.recorder.merge(batch_recorder)
                for pending, plan in group:
                    child = self.recorder.child()
                    try:
                        result = engine.run(
                            plan,
                            pending.exact,
                            recorder=child,
                            staged=staged,
                            deadline=pending.deadline,
                        )
                    except Exception as exc:  # noqa: BLE001
                        self.recorder.merge(child)
                        self._finish(pending, None, exc)
                        continue
                    self.recorder.merge(child)
                    self._finish(pending, result, None)
                if staged is not None:
                    saved = max(0, staged.hits - len(staged))
                    with self._cond:
                        self._ops_saved += saved
                        self._staged_files += len(staged)
                    if saved:
                        self.recorder.add(SERVER_OPS_SAVED, saved)
                    if len(staged):
                        self.recorder.add(SERVER_STAGED_FILES, len(staged))

    def _finish(
        self,
        pending: _PendingQuery,
        result: QueryResult | None,
        error: Exception | None,
    ) -> None:
        """Resolve one query's future and settle its admission accounting.

        The future is resolved under the service lock so this can never
        race :meth:`_cancel` (close's force-cancel path); a query that was
        already cancelled is a no-op here — its accounting settled when it
        was cancelled.
        """
        nbytes = (
            int(result.batch.data.nbytes) if result is not None else 0
        )
        with self._cond:
            if pending.future.done():
                return  # force-cancelled by close(); already settled
            self._inflight[pending.client] = max(
                0, self._inflight.get(pending.client, 0) - 1
            )
            if nbytes:
                self._client_bytes[pending.client] = (
                    self._client_bytes.get(pending.client, 0) + nbytes
                )
            self._queries_done += 1
            self._latencies.append(time.monotonic() - pending.submitted)
            if error is not None:
                pending.future.set_exception(error)
            else:
                assert result is not None
                pending.future.set_result(result)
        if nbytes:
            self.recorder.add(
                SERVER_CLIENT_BYTES, nbytes, key=(pending.client,)
            )

    # -- introspection -------------------------------------------------------

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        """The nearest-rank ``q`` quantile of an ascending list."""
        if not ordered:
            return 0.0
        pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[int(pos)]

    def stats(self) -> dict[str, Any]:
        """A snapshot of the service's lifetime accounting."""
        with self._cond:
            latencies = list(self._latencies)
            batches = self._batches
            widths = self._batch_width_sum
            stats = {
                "queries": self._queries_done,
                "pending": len(self._queue),
                "batches": batches,
                "mean_batch_width": (widths / batches) if batches else 0.0,
                "ops_saved": self._ops_saved,
                "staged_files": self._staged_files,
                "p50_latency_s": 0.0,
                "p99_latency_s": 0.0,
                "client_bytes": dict(self._client_bytes),
                "drained": self._drained,
                "cancelled": self._cancelled,
            }
        # One sort of the snapshot, outside the lock every submit takes: a
        # lifetime of latencies takes tens of milliseconds to sort.
        latencies.sort()
        stats["p50_latency_s"] = self._percentile(latencies, 0.50)
        stats["p99_latency_s"] = self._percentile(latencies, 0.99)
        return stats

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryService(datasets={sorted(self._datasets)}, {state}, "
            f"window={self.batch_window}s, max_batch={self.max_batch})"
        )
