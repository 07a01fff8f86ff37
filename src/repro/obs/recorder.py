"""The per-rank instrumentation recorder: spans + counters + events.

One :class:`Recorder` accumulates everything a rank (or a shared component,
like the MPI world or a storage backend) observes:

* **spans** — named intervals with wall-clock start/duration, used for the
  writer/reader pipeline phases (Fig. 6's ``aggregation`` / ``file_io``
  split).  Spans nest: a span opened while another is active records its
  parent, and the Chrome-trace exporter renders the nesting.
* **counters** — monotonically accumulated ``(name, key) -> float`` cells.
  The key tuple carries the dimension: ``(source, dest)`` for MPI traffic,
  ``(path,)`` for Darshan-style per-file storage counters, ``()`` for plain
  scalars like retry counts.
* **events** — timestamped points (a retry, an injected fault, a skipped
  partition) with free-form ``args``.

Recorders are thread-safe (simulated ranks are threads) and cheap: when
nothing reads them back, the overhead is one lock acquisition and a list
append per record.

The clock is injectable.  Production uses ``time.perf_counter``; tests pass
a fake with deterministic increments so span durations — and therefore the
derived :class:`~repro.utils.timing.TimeBreakdown` percentages — are exact.

Cross-rank aggregation is a rank-0 concern: :meth:`Recorder.merged` folds
any number of per-rank recorders into one (spans and events concatenate,
counter cells sum), which is what the exporters and the ``repro trace`` CLI
consume.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Callable

from repro.utils.timing import TimeBreakdown

__all__ = ["Span", "Event", "Recorder"]

#: A counter key: a tuple of hashables naming one cell of a counter series.
Key = tuple[Hashable, ...]


@dataclass(frozen=True)
class Span:
    """One completed named interval on one rank."""

    name: str
    rank: int
    start: float
    duration: float
    cat: str = "phase"
    parent: str | None = None
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Event:
    """One timestamped point-in-time observation."""

    name: str
    rank: int
    ts: float
    cat: str = "event"
    args: Mapping[str, object] = field(default_factory=dict)


class Recorder:
    """Accumulates spans, counters, and events for one rank (or component).

    ``rank`` tags every record (it becomes the Chrome-trace thread id);
    shared components that are not a rank use ``rank=-1``.
    """

    def __init__(
        self,
        rank: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.rank = rank
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self._clock = clock
        self._counters: dict[tuple[str, Key], float] = {}
        self._lock = threading.RLock()
        #: Per-thread span stacks, allocated by the first span: most child
        #: recorders only count and log, and never pay for one.
        self._stacks: threading.local | None = None

    def now(self) -> float:
        """The recorder's current clock reading (seconds, arbitrary epoch)."""
        return float(self._clock())

    # -- spans --------------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str = "phase",
        rank: int | None = None,
        **args: object,
    ) -> "_OpenSpan":
        """Measure a named interval (``with recorder.span(...):``); nested
        spans record their parent."""
        return _OpenSpan(self, name, cat, self.rank if rank is None else rank, args)

    def _span_stack(self) -> list[str]:
        """The calling thread's stack of open span names."""
        stacks = self._stacks
        if stacks is None:
            with self._lock:
                if self._stacks is None:
                    self._stacks = threading.local()
                stacks = self._stacks
        stack = getattr(stacks, "names", None)
        if stack is None:
            stack = stacks.names = []
        return stack

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        cat: str = "phase",
        rank: int | None = None,
        parent: str | None = None,
        **args: object,
    ) -> Span:
        """Record an already-measured (or modelled) interval directly.

        This is how the performance models report: they compute phase times
        analytically and deposit them as spans, so model estimates and real
        measurements flow through the same views and exporters.
        """
        if duration < 0:
            raise ValueError(f"negative span duration {duration!r} for {name!r}")
        span = Span(
            name=name,
            rank=self.rank if rank is None else rank,
            start=start,
            duration=duration,
            cat=cat,
            parent=parent,
            args=args,
        )
        with self._lock:
            self.spans.append(span)
        return span

    # -- counters -----------------------------------------------------------

    def add(self, name: str, value: float = 1.0, key: Key = ()) -> None:
        """Accumulate ``value`` into counter cell ``(name, key)``."""
        if type(key) is not tuple:
            key = tuple(key)
        with self._lock:
            self._counters[(name, key)] = self._counters.get((name, key), 0.0) + value

    def value(self, name: str, key: Key = ()) -> float:
        """Current value of one counter cell (0.0 if never touched)."""
        with self._lock:
            return self._counters.get((name, tuple(key)), 0.0)

    def series(self, name: str) -> dict[Key, float]:
        """All cells of one counter: ``key -> value``."""
        with self._lock:
            return {k: v for (n, k), v in self._counters.items() if n == name}

    def total(self, name: str) -> float:
        """Sum of one counter over all its keys."""
        with self._lock:
            return sum(v for (n, _k), v in self._counters.items() if n == name)

    def counters(self) -> dict[tuple[str, Key], float]:
        """An immutable snapshot of every counter cell."""
        with self._lock:
            return dict(self._counters)

    def counter_names(self) -> list[str]:
        with self._lock:
            return sorted({n for (n, _k) in self._counters})

    def clear_counter(self, name: str) -> None:
        """Drop every cell of one counter (compatibility-view resets)."""
        with self._lock:
            for cell in [c for c in self._counters if c[0] == name]:
                del self._counters[cell]

    # -- events -------------------------------------------------------------

    def event(
        self,
        name: str,
        cat: str = "event",
        rank: int | None = None,
        **args: object,
    ) -> Event:
        ev = Event(name, self.rank if rank is None else rank, self.now(), cat, args)
        with self._lock:
            self.events.append(ev)
        return ev

    def events_named(self, name: str) -> list[Event]:
        with self._lock:
            return [e for e in self.events if e.name == name]

    def event_mark(self) -> int:
        """A position in the event log; pass to :meth:`events_since`."""
        with self._lock:
            return len(self.events)

    def events_since(self, mark: int) -> list[Event]:
        with self._lock:
            return list(self.events[mark:])

    # -- derived views -------------------------------------------------------

    def phase_totals(
        self, rank: int | None = None, cat: str | None = None
    ) -> dict[str, float]:
        """Accumulated seconds per span name (optionally filtered)."""
        out: dict[str, float] = {}
        with self._lock:
            for s in self.spans:
                if rank is not None and s.rank != rank:
                    continue
                if cat is not None and s.cat != cat:
                    continue
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def breakdown(
        self, rank: int | None = None, cat: str | None = None
    ) -> TimeBreakdown:
        """The classic Fig. 6 view, derived from recorded spans."""
        return TimeBreakdown(self.phase_totals(rank=rank, cat=cat))

    # -- merging -------------------------------------------------------------

    def child(self) -> "Recorder":
        """A fresh, empty recorder sharing this one's rank and clock.

        This is the worker-side half of concurrent instrumentation: an
        :class:`~repro.io.executor.IoExecutor` hands every task its own
        child recorder, and the caller merges the children back in
        submission order — so records from concurrently executing tasks
        never interleave in the parent, and derived views (e.g.
        ``ReadReport.from_events``) see the same stream serial execution
        would have produced.
        """
        return Recorder(rank=self.rank, clock=self._clock)

    def snapshot(self) -> tuple[list[Span], list[Event], dict[tuple[str, Key], float]]:
        """A picklable image of everything recorded so far.

        :class:`Span`/:class:`Event` are frozen dataclasses of plain
        values, so the snapshot crosses process boundaries — this is how
        the process executor ships a worker's child recorder back to the
        parent (:meth:`absorb` on the receiving side).  The recorder
        itself is *not* picklable (it holds a lock and thread-local span
        stacks); snapshots are the transport format.
        """
        with self._lock:
            return (list(self.spans), list(self.events), dict(self._counters))

    def absorb(self, snap) -> "Recorder":
        """Fold a :meth:`snapshot` into this recorder in place."""
        spans, events, counters = snap
        with self._lock:
            self.spans.extend(spans)
            self.events.extend(events)
            for cell, v in counters.items():
                self._counters[cell] = self._counters.get(cell, 0.0) + v
        return self

    def merge(self, other: "Recorder") -> "Recorder":
        """Fold ``other`` into this recorder in place; returns ``self``.

        Spans and events concatenate (each carries its own rank); counter
        cells sum.  The canonical use is rank 0 merging every rank's
        recorder after a collective operation.  Merging an empty recorder
        takes no lock.
        """
        if not (other.spans or other.events or other._counters):
            return self
        with other._lock:
            spans = other.spans[:]
            events = other.events[:]
            counters = list(other._counters.items())
        with self._lock:
            self.spans += spans
            self.events += events
            mine = self._counters
            for cell, v in counters:
                mine[cell] = mine.get(cell, 0.0) + v
        return self

    @classmethod
    def merged(cls, recorders: Iterable["Recorder"]) -> "Recorder":
        """A new rank-0 recorder holding every input's records."""
        out = cls(rank=0)
        for rec in recorders:
            out.merge(rec)
        return out

    # -- housekeeping --------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.events.clear()
            self._counters.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Recorder(rank={self.rank}, spans={len(self.spans)}, "
                f"counters={len(self._counters)}, events={len(self.events)})"
            )


class _OpenSpan:
    """One :meth:`Recorder.span` interval: pushed on the calling thread's
    span stack on entry, recorded as a :class:`Span` on exit (also when the
    body raises)."""

    __slots__ = ("recorder", "name", "cat", "rank", "args", "stack", "parent", "start")

    def __init__(
        self, recorder: Recorder, name: str, cat: str, rank: int, args: Mapping[str, object]
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.cat = cat
        self.rank = rank
        self.args = args

    def __enter__(self) -> None:
        self.stack = stack = self.recorder._span_stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.name)
        self.start = self.recorder.now()

    def __exit__(self, *exc_info: object) -> None:
        recorder = self.recorder
        end = recorder.now()
        self.stack.pop()
        span = Span(
            self.name, self.rank, self.start, end - self.start, self.cat, self.parent, self.args
        )
        with recorder._lock:
            recorder.spans.append(span)
