"""Deadlines, hedged requests, and circuit breaking for remote reads.

A remote object store fails in ways local storage does not: requests stall
for seconds, a whole endpoint goes dark, tail latency eats an interactive
query's budget.  This module is the robustness half of the remote tier —
:class:`ResilientBackend` wraps any :class:`~repro.io.backend.FileBackend`
(in practice a :class:`~repro.io.remote.RemoteBackend`) and composes four
defenses, outermost first:

1. **Deadlines.**  A :class:`Deadline` is carried *ambiently* through a
   :mod:`contextvars` scope (:func:`deadline_scope` /
   :func:`current_deadline`), because the query engine fans work out
   through executors and thread pools where threading a parameter through
   every signature would touch dozens of call sites.  Operations that start
   after expiry are shed immediately (``deadline.shed``), and the remote
   backend narrows each request's timeout to the remaining budget.
2. **Hedged requests.**  Reads that outlive the observed latency
   percentile (:class:`Hedger`, tail-latency style) launch a second
   identical request; first result wins, the loser is consumed quietly.
   Hedging only applies to idempotent reads, into private buffers, so a
   losing attempt can never tear a caller-visible result.
3. **Circuit breaker.**  Per-path failure tracking
   (:class:`CircuitBreaker`, closed → open → half-open) fails fast with
   :class:`~repro.errors.BreakerOpenError` instead of hammering a dead
   store — an open breaker turns a multi-second timeout into an immediate
   degraded read from whatever cache tier holds the data.
4. **Retry.**  An optional :class:`~repro.io.retry.RetryPolicy` sits
   inside the breaker (each logical operation counts once against the
   breaker regardless of its retry attempts) and, as of this change, stops
   retrying when the ambient deadline can no longer afford another sleep.

:func:`build_remote_stack` assembles the full production composition::

    CachingBackend (RAM LRU)
      └─ DiskCacheBackend (local disk, crash-safe)
           └─ ResilientBackend (deadline → hedge → breaker → retry)
                └─ RemoteBackend (transport: simulated or HTTP)

so warm data is served without any remote traffic — which is exactly what
keeps queries answerable through a full remote outage.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures import wait as _futures_wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.errors import (
    BreakerOpenError,
    ConfigError,
    DeadlineExceededError,
    TransientBackendError,
)
from repro.io.backend import FileBackend, ReadRequest, WrapperBackend
from repro.obs.names import (
    BREAKER_FAST_FAILS,
    BREAKER_TRANSITIONS,
    DEADLINE_SHED,
    EV_BREAKER_STATE,
    EV_DEADLINE_SHED,
    EV_HEDGE,
    HEDGE_LAUNCHED,
    HEDGE_WASTED,
    HEDGE_WINS,
)
from repro.obs.recorder import Recorder

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "CircuitBreaker",
    "Hedger",
    "ResilientBackend",
    "build_remote_stack",
]


# -- deadlines ---------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute point on a monotonic clock by which work must finish.

    Built with :meth:`after`; carried through :func:`deadline_scope`.  The
    clock is injectable so tests can expire deadlines without sleeping.
    """

    at: float
    total_s: float
    clock: object = field(default=time.monotonic, compare=False, repr=False)

    @classmethod
    def after(cls, seconds: float, clock=time.monotonic) -> "Deadline":
        if seconds <= 0:
            raise ConfigError(f"deadline must be > 0 seconds, got {seconds}")
        return cls(at=clock() + seconds, total_s=float(seconds), clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - self.clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        rem = self.remaining()
        if rem <= 0.0:
            raise DeadlineExceededError(
                f"{what}: deadline of {self.total_s * 1e3:.0f} ms exceeded "
                f"({-rem * 1e3:.1f} ms ago)"
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(total={self.total_s * 1e3:.0f}ms, "
            f"remaining={self.remaining() * 1e3:.0f}ms)"
        )


_DEADLINE: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The ambient deadline for this context, or ``None``."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make ``deadline`` ambient within the block (``None`` = clear it).

    ContextVars do not cross thread boundaries: code that ships closures to
    worker threads (the query engine, the hedging pool) must capture the
    deadline at submit time and re-enter a scope inside the task body.
    """
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


# -- circuit breaker ---------------------------------------------------------


class _PathState:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-path closed → open → half-open failure tracking.

    ``failure_threshold`` consecutive transient failures against one path
    open its breaker; for ``reset_after`` seconds every request to that
    path fails fast with :class:`~repro.errors.BreakerOpenError` (counted
    under ``breaker.fast_fails``) without touching the store.  After the
    cooldown, the breaker goes *half-open*: exactly one probe request is
    let through — success closes the breaker, failure re-opens it for
    another cooldown.  Transitions are counted (``breaker.transitions``)
    and emitted as ``breaker.state`` events on the attached recorder.

    Thread-safe; the clock is injectable so chaos tests can march time
    forward without sleeping.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_after: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after < 0:
            raise ConfigError(f"reset_after must be >= 0, got {reset_after}")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self.clock = clock
        self.recorder: Recorder | None = None
        self._lock = threading.Lock()
        self._paths: dict[str, _PathState] = {}
        self.fast_fails = 0

    def state(self, path: str) -> str:
        with self._lock:
            st = self._paths.get(path)
            if st is None:
                return "closed"
            if (
                st.state == "open"
                and self.clock() - st.opened_at >= self.reset_after
            ):
                return "half-open"
            return st.state

    def _transition(self, path: str, st: _PathState, to: str) -> None:
        """Move ``path`` to state ``to`` (caller holds the lock)."""
        old = st.state
        if old == to:
            return
        st.state = to
        if to == "open":
            st.opened_at = self.clock()
            st.probing = False
        if to == "closed":
            st.failures = 0
            st.probing = False
        if self.recorder is not None:
            self.recorder.add(BREAKER_TRANSITIONS, 1, key=(to,))
            self.recorder.event(
                EV_BREAKER_STATE,
                path=path,
                to=to,
                failures=st.failures,
                **{"from": old},
            )

    def allow(self, path: str) -> None:
        """Admit one request to ``path`` or raise
        :class:`~repro.errors.BreakerOpenError` immediately."""
        with self._lock:
            st = self._paths.get(path)
            if st is None or st.state == "closed":
                return
            if st.state == "open":
                if self.clock() - st.opened_at >= self.reset_after:
                    self._transition(path, st, "half-open")
                else:
                    self._fast_fail(path)
            if st.state == "half-open":
                if st.probing:
                    self._fast_fail(path)
                st.probing = True
                return

    def _fast_fail(self, path: str) -> None:
        self.fast_fails += 1
        if self.recorder is not None:
            self.recorder.add(BREAKER_FAST_FAILS, 1, key=(path,))
        raise BreakerOpenError(
            f"circuit breaker open for {path!r} "
            f"(failing fast; probe in <= {self.reset_after:.1f}s)"
        )

    def record_success(self, path: str) -> None:
        with self._lock:
            st = self._paths.get(path)
            if st is None:
                return
            st.probing = False
            self._transition(path, st, "closed")
            st.failures = 0

    def record_failure(self, path: str) -> None:
        with self._lock:
            st = self._paths.setdefault(path, _PathState())
            st.failures += 1
            st.probing = False
            if st.state == "half-open" or st.failures >= self.failure_threshold:
                self._transition(path, st, "open")


# -- hedging ----------------------------------------------------------------


class Hedger:
    """Decides *when* a read has waited long enough to deserve a hedge.

    Keeps a sliding window of observed request latencies and triggers the
    second request once the primary outlives the ``percentile``-th of that
    window (the classic tail-at-scale recipe).  Until ``min_samples``
    observations exist — or when the percentile is implausibly low — the
    floor ``min_wait_s`` applies, which also prevents hedge storms against
    a uniformly slow store.
    """

    def __init__(
        self,
        *,
        percentile: float = 0.95,
        min_wait_s: float = 0.05,
        window: int = 128,
        min_samples: int = 8,
    ):
        if not 0.0 < percentile <= 1.0:
            raise ConfigError(f"percentile must be in (0, 1], got {percentile}")
        if min_wait_s < 0:
            raise ConfigError(f"min_wait_s must be >= 0, got {min_wait_s}")
        self.percentile = float(percentile)
        self.min_wait_s = float(min_wait_s)
        self.min_samples = int(min_samples)
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=int(window))

    def observe(self, latency_s: float) -> None:
        with self._lock:
            self._window.append(float(latency_s))

    def trigger_delay(self) -> float:
        """Seconds to wait on the primary before launching the hedge."""
        with self._lock:
            if len(self._window) < self.min_samples:
                return self.min_wait_s
            ordered = sorted(self._window)
            idx = min(len(ordered) - 1, int(self.percentile * len(ordered)))
            return max(self.min_wait_s, ordered[idx])


# -- the resilient wrapper ---------------------------------------------------


class ResilientBackend(WrapperBackend):
    """Deadline shedding, hedged reads, and circuit breaking over ``base``.

    Every operation runs the same guard pipeline: shed if the ambient
    :class:`Deadline` already expired, fail fast if the path's breaker is
    open, then execute — reads optionally hedged, everything optionally
    retried by ``retry`` *inside* the breaker (one logical operation is one
    breaker verdict, however many attempts it took).  Success closes the
    breaker for that path; a transient failure (after retries) counts
    against it.  Permanent errors — missing objects, corrupt payloads —
    pass through untouched and never trip the breaker.

    Hedged attempts read into private buffers; the caller's views are only
    filled from the winning attempt, so a slow loser cannot tear results.
    """

    def __init__(
        self,
        base: FileBackend,
        *,
        breaker: CircuitBreaker | None = None,
        hedger: Hedger | None = None,
        retry=None,
        hedge_workers: int = 4,
        clock=time.monotonic,
    ):
        super().__init__(base)
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        self.hedger = hedger
        self.retry = retry
        self.clock = clock
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._hedge_workers = int(hedge_workers)
        self.shed = 0
        self.hedges_launched = 0

    def attach_recorder(self, recorder: Recorder | None) -> None:
        super().attach_recorder(recorder)
        self.breaker.recorder = recorder

    def close(self) -> None:
        """Shut down the hedging pool (idempotent), then close ``base``."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        super().close()

    def _pool_get(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._hedge_workers,
                    thread_name_prefix="repro-hedge",
                )
            return self._pool

    # -- guard pipeline ------------------------------------------------------

    def _shed_check(self, path: str, op: str) -> Deadline | None:
        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            self.shed += 1
            if self.recorder is not None:
                self.recorder.add(DEADLINE_SHED, 1)
                self.recorder.event(EV_DEADLINE_SHED, path=path, op=op)
            deadline.check(f"{op} {path!r}")
        return deadline

    def _guarded(self, path: str, op: str, fn, *, hedge: bool):
        deadline = self._shed_check(path, op)
        self.breaker.allow(path)
        if hedge and self.hedger is not None:
            call = lambda: self._hedged(path, op, fn, deadline)  # noqa: E731
        else:
            call = fn
        try:
            if self.retry is not None:
                result = self.retry.call(call, recorder=self.recorder)
            else:
                result = call()
        except TransientBackendError:
            self.breaker.record_failure(path)
            raise
        self.breaker.record_success(path)
        return result

    def _hedged(self, path: str, op: str, fn, deadline: Deadline | None):
        """Run ``fn``; launch one identical hedge if it outlives the trigger."""
        hedger = self.hedger
        assert hedger is not None

        def attempt():
            started = self.clock()
            if deadline is not None:
                with deadline_scope(deadline):
                    result = fn()
            else:
                result = fn()
            hedger.observe(self.clock() - started)
            return result

        delay = hedger.trigger_delay()
        pool = self._pool_get()
        primary = pool.submit(attempt)
        try:
            return primary.result(timeout=delay)
        except _FuturesTimeout:
            pass
        # Primary is slow: launch the hedge and take whichever lands first.
        self.hedges_launched += 1
        if self.recorder is not None:
            self.recorder.add(HEDGE_LAUNCHED, 1)
            self.recorder.event(EV_HEDGE, path=path, op=op, waited_s=delay)
        secondary = pool.submit(attempt)
        pending = {primary, secondary}
        first_error: BaseException | None = None
        while pending:
            done, pending = _futures_wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                exc = fut.exception()
                if exc is None:
                    winner = fut
                    for loser in pending:
                        # The losing attempt finishes (or fails) in the
                        # background; consume its outcome so nothing leaks.
                        loser.add_done_callback(lambda f: f.exception())
                    if self.recorder is not None:
                        if winner is secondary:
                            self.recorder.add(HEDGE_WINS, 1)
                        else:
                            self.recorder.add(HEDGE_WASTED, 1)
                    return winner.result()
                if first_error is None or fut is primary:
                    first_error = exc
        assert first_error is not None
        raise first_error

    # -- operations ----------------------------------------------------------

    def _forward(self, op: str, path: str, *args, **kwargs):
        """Every operation is guarded; of the forwarded ones only the
        idempotent whole-object read is hedged."""
        path = self._normalize(path)
        forward = super()._forward
        return self._guarded(
            path,
            op,
            lambda: forward(op, path, *args, **kwargs),
            hedge=op == "read_file",
        )

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        path = self._normalize(path)
        if not request.count:
            return 0
        offsets, lengths = request.ranges()

        def attempt() -> bytearray:
            # A private landing per attempt: two racing hedge attempts must
            # never write into the caller's views concurrently.
            buf = bytearray(request.nbytes)
            self.base.readv(path, ReadRequest([(buf, offsets, lengths)]), actor=actor)
            return buf

        landed = memoryview(self._guarded(path, "readv", attempt, hedge=True))
        # The ranges landed back to back, so each part is one slice of it.
        pos = 0
        for view, _offsets, _lengths in request.parts:
            view[:] = landed[pos : pos + len(view)]
            pos += len(view)
        return request.nbytes

    def __repr__(self) -> str:
        return (
            f"ResilientBackend({self.base!r}, shed={self.shed}, "
            f"hedges={self.hedges_launched}, "
            f"fast_fails={self.breaker.fast_fails})"
        )


# -- stack assembly ----------------------------------------------------------


def build_remote_stack(
    transport,
    *,
    ram_cache_bytes: int = 64 << 20,
    disk_cache_dir: str | None = None,
    disk_cache_bytes: int = 256 << 20,
    retry=None,
    breaker: CircuitBreaker | None = None,
    hedger: Hedger | None = None,
    request_timeout: float | None = None,
    clock=time.monotonic,
) -> FileBackend:
    """Assemble the full remote read stack, warm tiers outermost.

    ``RAM LRU → local-disk cache → resilience → remote`` — reads served by
    either cache tier involve no remote request at all, which is what
    keeps warm queries bit-identical and fast through an outage.  Pass
    ``disk_cache_dir=None`` to skip the disk tier, ``hedger=None`` to
    disable hedging, ``retry=None`` to disable retries.
    """
    from repro.io.cache import CachingBackend
    from repro.io.remote import RemoteBackend

    backend: FileBackend = RemoteBackend(
        transport, default_timeout=request_timeout
    )
    backend = ResilientBackend(
        backend,
        breaker=breaker if breaker is not None else CircuitBreaker(clock=clock),
        hedger=hedger,
        retry=retry,
        clock=clock,
    )
    if disk_cache_dir is not None:
        from repro.io.diskcache import DiskCacheBackend

        backend = DiskCacheBackend(
            backend, disk_cache_dir, max_bytes=disk_cache_bytes
        )
    if ram_cache_bytes > 0:
        backend = CachingBackend(backend, max_bytes=ram_cache_bytes)
    return backend
