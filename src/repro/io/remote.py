"""A remote object-store backend: high latency, per-request cost, range GETs.

Object stores (S3 and its lookalikes) invert the economics the rest of the
library was tuned on: a request costs milliseconds of round trip and real
money, bandwidth is good once a transfer is streaming, and any request can
transiently fail or stall.  :class:`RemoteBackend` implements the full
:class:`~repro.io.backend.FileBackend` contract over a pluggable
:class:`Transport`, so everything above it — chunk-pruned plans, readv
scatter-gather, the cache tiers, retry/fault machinery, the serving layer —
works against a remote store unchanged.  Two transports ship:

* :class:`SimulatedTransport` — the default for tests/benchmarks, in the
  spirit of :mod:`repro.perf`'s machine models: configurable RTT,
  bandwidth, deterministic jitter, per-request + per-byte cost, and a
  virtual clock (no real sleeping) so a 100 ms-RTT benchmark runs in
  microseconds.  An :class:`OutagePlan` scripts outage windows and latency
  spikes by request ordinal — the chaos matrix's knob.
* :class:`HttpTransport` — a real HTTP(S) range-GET client built on the
  stdlib only (``urllib.request``; never a third-party dependency), for
  pointing the stack at any server that honours ``Range`` headers.

Request accounting is the point (the openPMD+Darshan lesson: per-request
numbers are what make remote I/O tunable): every transport request lands on
an attached recorder as ``remote.requests`` / ``remote.bytes`` (keyed by
op), ``remote.cost_micro`` (integer micro-units, so counter sums stay
exact), and ``remote.time`` seconds; ``remote.bytes`` counts what a put
sent and what a read returned.  ``readv`` is one ``get_ranges`` call: on a
transport that packs ranges (the simulated store) one request's RTT and
cost amortised over every segment of a coalesced chunk-run plan, which is
exactly why the planner coalesces; over :class:`HttpTransport`, one GET
per range.

Resilience (deadlines, hedging, circuit breaking, cache fallback) is
deliberately **not** here — wrap a :class:`RemoteBackend` in
:class:`repro.io.resilience.ResilientBackend` (see
:func:`repro.io.resilience.build_remote_stack` for the full production
stack).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import (
    BackendError,
    ConfigError,
    RemoteUnavailableError,
    RequestTimeoutError,
)
from repro.io.backend import FileBackend, ReadRequest
from repro.obs.names import (
    REMOTE_BYTES,
    REMOTE_COST_MICRO,
    REMOTE_REQUESTS,
    REMOTE_TIME,
    REMOTE_TIMEOUTS,
    REMOTE_UNAVAILABLE,
)

__all__ = [
    "Transport",
    "TransportStats",
    "OutagePlan",
    "SimulatedTransport",
    "HttpTransport",
    "RemoteBackend",
]


@dataclass
class TransportStats:
    """Lifetime accounting one transport accumulates (thread-safe holder)."""

    requests: int = 0
    bytes_moved: int = 0
    #: accumulated cost in the configured cost unit (float; the obs counter
    #: carries the same total as integer micro-units).
    cost: float = 0.0
    #: seconds spent inside requests (virtual seconds for the simulator).
    time_s: float = 0.0
    timeouts: int = 0
    unavailable: int = 0

    def snapshot(self) -> "TransportStats":
        return TransportStats(
            requests=self.requests,
            bytes_moved=self.bytes_moved,
            cost=self.cost,
            time_s=self.time_s,
            timeouts=self.timeouts,
            unavailable=self.unavailable,
        )


class Transport(ABC):
    """The wire protocol under a :class:`RemoteBackend`.

    Implementations raise :class:`~repro.errors.RemoteUnavailableError`
    for refused/dropped requests, :class:`~repro.errors.RequestTimeoutError`
    when ``timeout`` (seconds, ``None`` = unlimited) is exceeded, and plain
    :class:`~repro.errors.BackendError` for permanent failures (404s).
    Every implementation keeps a :class:`TransportStats`.
    """

    def __init__(self) -> None:
        self.stats = TransportStats()
        self._stats_lock = threading.Lock()

    def _account(self, nbytes: int, cost: float, elapsed: float) -> None:
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.bytes_moved += nbytes
            self.stats.cost += cost
            self.stats.time_s += elapsed

    @abstractmethod
    def get(self, path: str, timeout: float | None = None) -> bytes:
        """Fetch a whole object."""

    @abstractmethod
    def get_ranges(
        self,
        path: str,
        ranges: list[tuple[int, int]],
        timeout: float | None = None,
    ) -> list[bytes]:
        """Multi-range GET: one request serving every ``(offset, length)``."""

    @abstractmethod
    def put(self, path: str, data: bytes, timeout: float | None = None) -> None:
        """Store a whole object (create or replace)."""

    @abstractmethod
    def head(self, path: str, timeout: float | None = None) -> int | None:
        """Object size in bytes, or ``None`` if it does not exist."""

    @abstractmethod
    def list(self, prefix: str, timeout: float | None = None) -> list[str]:
        """Names directly under directory ``prefix``."""

    @abstractmethod
    def delete(self, path: str, timeout: float | None = None) -> None:
        """Remove an object (missing objects are a no-op, S3-style)."""


@dataclass(frozen=True)
class OutagePlan:
    """Scripted misbehaviour windows, addressed by request ordinal.

    Deterministic by construction (ordinals, not wall clock): request
    numbers in ``[start, stop)`` of a ``down`` window raise
    :class:`~repro.errors.RemoteUnavailableError` before any work; windows
    in ``slow`` multiply the request's simulated latency by ``factor``.
    ``down_after`` is the open-ended form (every request from that ordinal
    on fails) — the "store hard-down mid-burst" chaos scenario — until
    :meth:`SimulatedTransport.heal` lifts it.
    """

    #: half-open ``[start, stop)`` ordinal windows that fail outright.
    down: tuple[tuple[int, int], ...] = ()
    #: ``(start, stop, factor)`` ordinal windows with inflated latency.
    slow: tuple[tuple[int, int, float], ...] = ()
    #: every request with ordinal >= this fails (None = never).
    down_after: int | None = None

    def latency_factor(self, ordinal: int) -> float:
        factor = 1.0
        for start, stop, f in self.slow:
            if start <= ordinal < stop:
                factor *= f
        return factor

    def is_down(self, ordinal: int) -> bool:
        if self.down_after is not None and ordinal >= self.down_after:
            return True
        return any(start <= ordinal < stop for start, stop in self.down)


class SimulatedTransport(Transport):
    """An object store simulated over any local :class:`FileBackend`.

    ``store`` holds the truth (a :class:`~repro.io.virtual.VirtualBackend`
    in tests, a :class:`~repro.io.posix.PosixBackend` for CLI demos); this
    transport adds the remote-shaped physics on top:

    * latency per request = ``rtt_s * (1 + jitter * u(seed, n)) +
      bytes / bandwidth``, with ``u`` the same Weyl-style deterministic
      hash the retry policy uses — two runs of one workload see identical
      latencies;
    * cost per request = ``cost_per_request + nbytes * cost_per_gb / 1 GiB``;
    * a **virtual clock** by default: latency accumulates on
      :attr:`virtual_time_s` instead of sleeping, so RTT sweeps are free.
      Pass ``real_sleep=True`` to actually block (demo realism);
    * an :class:`OutagePlan` (or :meth:`fail` / :meth:`heal` toggles) for
      chaos scripting;
    * ``timeout`` honoured: a request whose simulated latency exceeds it
      charges the timeout's worth of time/cost, then raises
      :class:`~repro.errors.RequestTimeoutError`.
    """

    def __init__(
        self,
        store: FileBackend,
        *,
        rtt_s: float = 0.05,
        bandwidth: float = 100e6,
        jitter: float = 0.1,
        cost_per_request: float = 4e-7,
        cost_per_gb: float = 0.09,
        seed: int = 0,
        outages: OutagePlan | None = None,
        real_sleep: bool = False,
        sleep=time.sleep,
    ):
        super().__init__()
        if rtt_s < 0 or bandwidth <= 0 or jitter < 0:
            raise ConfigError(
                "rtt_s and jitter must be >= 0, bandwidth must be > 0"
            )
        self.store = store
        self.rtt_s = float(rtt_s)
        self.bandwidth = float(bandwidth)
        self.jitter = float(jitter)
        self.cost_per_request = float(cost_per_request)
        self.cost_per_gb = float(cost_per_gb)
        self.seed = int(seed)
        self.outages = outages if outages is not None else OutagePlan()
        self.real_sleep = real_sleep
        self._sleep = sleep
        self._lock = threading.Lock()
        self._ordinal = 0
        self._forced_down = False
        #: simulated seconds accumulated across all requests (virtual mode).
        self.virtual_time_s = 0.0

    # -- chaos toggles -------------------------------------------------------

    def fail(self) -> None:
        """Hard-down the store now (every request fails until healed)."""
        with self._lock:
            self._forced_down = True

    def heal(self) -> None:
        """Lift both the forced outage and any open-ended plan window."""
        with self._lock:
            self._forced_down = False
            if self.outages.down_after is not None:
                self.outages = OutagePlan(
                    down=self.outages.down, slow=self.outages.slow
                )

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._forced_down or self.outages.is_down(self._ordinal)

    # -- latency / cost model ------------------------------------------------

    def _unit(self, ordinal: int) -> float:
        """Deterministic jitter draw in [0, 1) for request ``ordinal``."""
        h = ((self.seed * 40503 + ordinal + 1) * 2654435761) & 0xFFFFFFFF
        return h / 2**32

    def latency_for(self, ordinal: int, nbytes: int) -> float:
        base = self.rtt_s * (1.0 + self.jitter * self._unit(ordinal))
        return base * self.outages.latency_factor(ordinal) + nbytes / self.bandwidth

    def cost_for(self, nbytes: int) -> float:
        return self.cost_per_request + nbytes * self.cost_per_gb / 2**30

    def _request(self, nbytes: int, timeout: float | None):
        """Admission + physics for one request; returns the charged latency.

        Raises before touching the store on an outage; raises
        :class:`~repro.errors.RequestTimeoutError` (after charging
        ``timeout`` seconds of latency and the request's cost — the wire
        time was spent even though no bytes arrived) on a too-slow request.
        """
        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
            down = self._forced_down or self.outages.is_down(ordinal)
        cost = self.cost_for(nbytes)
        if down:
            # A refused request still burns a round trip.
            latency = self.rtt_s
            self._spend(latency)
            self._account(0, self.cost_per_request, latency)
            with self._stats_lock:
                self.stats.unavailable += 1
            raise RemoteUnavailableError(
                f"simulated outage: request #{ordinal} refused"
            )
        latency = self.latency_for(ordinal, nbytes)
        if timeout is not None and latency > timeout:
            self._spend(timeout)
            self._account(0, cost, timeout)
            with self._stats_lock:
                self.stats.timeouts += 1
            raise RequestTimeoutError(
                f"simulated request #{ordinal} needed {latency * 1e3:.1f} ms, "
                f"timeout was {timeout * 1e3:.1f} ms"
            )
        self._spend(latency)
        self._account(nbytes, cost, latency)
        return latency

    def _spend(self, seconds: float) -> None:
        if self.real_sleep:
            self._sleep(seconds)
        with self._lock:
            self.virtual_time_s += seconds

    # -- Transport interface -------------------------------------------------

    def get(self, path: str, timeout: float | None = None) -> bytes:
        data = self.store.read_file(path)
        self._request(len(data), timeout)
        return data

    def get_ranges(
        self,
        path: str,
        ranges: list[tuple[int, int]],
        timeout: float | None = None,
    ) -> list[bytes]:
        parts = [
            self.store.read_range(path, offset, length)
            for offset, length in ranges
        ]
        self._request(sum(len(p) for p in parts), timeout)
        return parts

    def put(self, path: str, data: bytes, timeout: float | None = None) -> None:
        self._request(len(data), timeout)
        self.store.write_file(path, data)

    def head(self, path: str, timeout: float | None = None) -> int | None:
        self._request(0, timeout)
        if not self.store.exists(path):
            return None
        return self.store.size(path)

    def list(self, prefix: str, timeout: float | None = None) -> list[str]:
        self._request(0, timeout)
        return self.store.listdir(prefix)

    def delete(self, path: str, timeout: float | None = None) -> None:
        self._request(0, timeout)
        self.store.delete(path, missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"SimulatedTransport(rtt={self.rtt_s * 1e3:.1f}ms, "
            f"bw={self.bandwidth / 1e6:.0f}MB/s, "
            f"requests={self.stats.requests}, "
            f"cost={self.stats.cost:.6f})"
        )


class HttpTransport(Transport):
    """Range-GET transport over plain HTTP(S), stdlib only.

    ``base_url`` is the object-store root; backend paths append to it.
    Uses ``urllib.request`` — no third-party client is ever imported, so
    the module is importable everywhere and the real-network path is
    strictly opt-in.  Servers must honour ``Range`` for ranged reads
    (S3-compatible endpoints and real HTTP servers do; a 200-to-a-Range
    response is rejected rather than silently over-reading).  Multi-range
    requests are issued as per-range GETs (multipart/byteranges parsing
    buys little against HTTP/1.1 keep-alive and complicates every proxy).

    Network errors surface as :class:`~repro.errors.RemoteUnavailableError`
    (connection refused/reset, 5xx) so the resilience layer's breaker and
    the retry policy treat a flaky endpoint exactly like a simulated one;
    404s are permanent :class:`~repro.errors.BackendError`.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0):
        super().__init__()
        if not base_url.startswith(("http://", "https://")):
            raise ConfigError(f"base_url must be http(s)://, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _url(self, path: str) -> str:
        from urllib.parse import quote

        return f"{self.base_url}/{quote(path)}"

    def _open(self, request, timeout: float | None):
        import socket
        from urllib.error import HTTPError, URLError
        from urllib.request import urlopen

        effective = self.timeout_s if timeout is None else min(timeout, self.timeout_s)
        try:
            return urlopen(request, timeout=effective)  # noqa: S310 — caller-supplied endpoint
        except HTTPError as exc:
            if exc.code in (404, 410):
                raise BackendError(
                    f"{request.full_url}: HTTP {exc.code}"
                ) from exc
            if exc.code in (408, 429) or exc.code >= 500:
                raise RemoteUnavailableError(
                    f"{request.full_url}: HTTP {exc.code}"
                ) from exc
            raise BackendError(f"{request.full_url}: HTTP {exc.code}") from exc
        except socket.timeout as exc:
            with self._stats_lock:
                self.stats.timeouts += 1
            raise RequestTimeoutError(
                f"{request.full_url}: timed out after {effective}s"
            ) from exc
        except URLError as exc:
            if isinstance(exc.reason, socket.timeout):
                with self._stats_lock:
                    self.stats.timeouts += 1
                raise RequestTimeoutError(
                    f"{request.full_url}: timed out after {effective}s"
                ) from exc
            with self._stats_lock:
                self.stats.unavailable += 1
            raise RemoteUnavailableError(
                f"{request.full_url}: {exc.reason}"
            ) from exc

    def _fetch(
        self,
        path: str,
        headers: dict[str, str],
        timeout: float | None,
        method: str = "GET",
        data: bytes | None = None,
    ):
        from urllib.request import Request

        start = time.monotonic()
        request = Request(  # noqa: S310
            self._url(path), headers=headers, method=method, data=data
        )
        with self._open(request, timeout) as resp:
            body = resp.read() if method in ("GET",) else b""
            status = resp.status
        nbytes = len(body) + len(data or b"")
        self._account(nbytes, 0.0, time.monotonic() - start)
        return status, body

    def get(self, path: str, timeout: float | None = None) -> bytes:
        _status, body = self._fetch(path, {}, timeout)
        return body

    def get_ranges(
        self,
        path: str,
        ranges: list[tuple[int, int]],
        timeout: float | None = None,
    ) -> list[bytes]:
        parts: list[bytes] = []
        for offset, length in ranges:
            if length == 0:
                parts.append(b"")
                continue
            headers = {"Range": f"bytes={offset}-{offset + length - 1}"}
            status, body = self._fetch(path, headers, timeout)
            if status != 206:
                raise BackendError(
                    f"{path!r}: server ignored Range (HTTP {status}); "
                    "refusing to over-read"
                )
            if len(body) != length:
                raise BackendError(
                    f"{path!r}: range [{offset}, +{length}) returned "
                    f"{len(body)} bytes"
                )
            parts.append(body)
        return parts

    def put(self, path: str, data: bytes, timeout: float | None = None) -> None:
        self._fetch(path, {}, timeout, method="PUT", data=data)

    def head(self, path: str, timeout: float | None = None) -> int | None:
        from urllib.request import Request

        start = time.monotonic()
        request = Request(self._url(path), method="HEAD")  # noqa: S310
        try:
            with self._open(request, timeout) as resp:
                size = int(resp.headers.get("Content-Length", 0))
        except BackendError as exc:
            if isinstance(exc, (RemoteUnavailableError, RequestTimeoutError)):
                raise
            return None
        self._account(0, 0.0, time.monotonic() - start)
        return size

    def list(self, prefix: str, timeout: float | None = None) -> list[str]:
        raise BackendError(
            "HttpTransport cannot list directories (no common protocol); "
            "use a manifest-driven open, which never lists"
        )

    def delete(self, path: str, timeout: float | None = None) -> None:
        try:
            self._fetch(path, {}, timeout, method="DELETE")
        except BackendError as exc:
            if isinstance(exc, (RemoteUnavailableError, RequestTimeoutError)):
                raise
            # S3-style: deleting a missing object succeeds.

    def __repr__(self) -> str:
        return f"HttpTransport({self.base_url!r})"


class RemoteBackend(FileBackend):
    """The full :class:`FileBackend` contract over a :class:`Transport`.

    Every backend operation becomes one transport request — including
    :meth:`readv`, which maps a scatter-gather read onto **one multi-range
    GET** so a coalesced chunk-run plan pays one RTT and one request fee
    per file instead of one per range (the request-aggregation idea,
    applied at the remote tier).  ``default_timeout`` bounds each request;
    the resilience layer narrows it further per call via the ambient
    deadline.

    With a recorder attached, per-op ``remote.*`` counters accumulate on
    top of the standard Darshan-style ``io.*`` per-file counters, so a
    trace shows both *what* was read and *what it cost*.
    """

    def __init__(self, transport: Transport, *, default_timeout: float | None = None):
        self.transport = transport
        self.default_timeout = default_timeout

    # -- accounting ----------------------------------------------------------

    def _note_request(self, op: str, nbytes: int, before: TransportStats) -> None:
        if self.recorder is None:
            return
        after = self.transport.stats
        self.recorder.add(REMOTE_REQUESTS, 1, key=(op,))
        if nbytes:
            self.recorder.add(REMOTE_BYTES, nbytes, key=(op,))
        self.recorder.add(
            REMOTE_COST_MICRO, round((after.cost - before.cost) * 1e6)
        )
        self.recorder.add(REMOTE_TIME, after.time_s - before.time_s)
        if after.timeouts > before.timeouts:
            self.recorder.add(REMOTE_TIMEOUTS, after.timeouts - before.timeouts)
        if after.unavailable > before.unavailable:
            self.recorder.add(
                REMOTE_UNAVAILABLE, after.unavailable - before.unavailable
            )

    def _timeout(self) -> float | None:
        """Per-request budget: ``default_timeout`` narrowed to whatever the
        ambient deadline has left, so one slow request can never consume
        more than the query's remaining time."""
        from repro.io.resilience import current_deadline

        deadline = current_deadline()
        if deadline is None:
            return self.default_timeout
        remaining = max(deadline.remaining(), 0.0)
        if self.default_timeout is None:
            return remaining
        return min(self.default_timeout, remaining)

    def _request(self, op: str, send, *args, nbytes: int = 0, received=None):
        """One transport request under the ambient time budget, accounted
        under ``op`` whether it returns or raises: ``nbytes`` payload bytes
        sent, plus ``received(result)`` for what a read returned."""
        before = self.transport.stats.snapshot()
        try:
            result = send(*args, timeout=self._timeout())
            if received is not None:
                nbytes += received(result)
            return result
        finally:
            self._note_request(op, nbytes, before)

    # -- reads ---------------------------------------------------------------

    def read_file(self, path: str, actor: int = -1) -> bytes:
        path = self._normalize(path)
        data = self._request("get", self.transport.get, path, received=len)
        self._note_open(path)
        self._note_read(path, len(data))
        return data

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        """Every range through one ``get_ranges`` call: a single request
        where the transport packs ranges (``SimulatedTransport``), one GET
        per range over ``HttpTransport``."""
        path = self._normalize(path)
        segs = self._segments(request)
        if not segs:
            return 0
        parts = self._request(
            "get_ranges",
            self.transport.get_ranges,
            path,
            [(off, len(out)) for off, out in segs],
            received=lambda parts: sum(map(len, parts)),
        )
        total = 0
        self._note_open(path)
        for (off, out), data in zip(segs, parts):
            if len(data) != len(out):
                raise BackendError(
                    f"short remote read from {path!r}: wanted {len(out)} "
                    f"bytes at {off}, got {len(data)}"
                )
            out[:] = data
            self._note_read(path, len(out))
            total += len(out)
        return total

    # -- mutations / metadata ------------------------------------------------

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        path = self._normalize(path)
        self._request("put", self.transport.put, path, data, nbytes=len(data))
        self._note_open(path)
        self._note_write(path, len(data))

    def exists(self, path: str) -> bool:
        path = self._normalize(path)
        return self._request("head", self.transport.head, path) is not None

    def size(self, path: str) -> int:
        path = self._normalize(path)
        size = self._request("head", self.transport.head, path)
        if size is None:
            raise BackendError(f"stat {path!r}: no such remote object")
        return size

    def listdir(self, path: str) -> list[str]:
        path = self._normalize(path)
        return self._request("list", self.transport.list, path)

    def delete(self, path: str, missing_ok: bool = False) -> None:
        path = self._normalize(path)
        if not missing_ok and not self.exists(path):
            raise BackendError(f"deleting {path!r}: no such remote object")
        self._request("delete", self.transport.delete, path)

    def __repr__(self) -> str:
        return f"RemoteBackend({self.transport!r})"
