"""The storage-backend interface and the I/O operation record.

Backends are deliberately tiny: whole-file create/write, ranged reads, and
directory listing are all the library needs.  Paths are POSIX-style strings
relative to the backend root ("data/file_0.pbin"); backends own the mapping
to whatever actually stores the bytes.

A backend implements exactly two read verbs: :meth:`FileBackend.read_file`
(the whole object — an un-ranged request with its own cache key) and
:meth:`FileBackend.readv` (every ranged read: one :class:`ReadRequest`, a
flattened offset–length list landing back to back in caller-owned
buffers, served under one logical open).  ``read_range`` and
``readinto`` are conveniences defined once, here, over ``readv``; no
backend overrides them.  Backends that delegate to another
backend derive from :class:`WrapperBackend`, which forwards everything, so
each overrides only the operations it changes.

Instrumentation: any backend can have an obs recorder attached
(:meth:`FileBackend.attach_recorder`), after which it maintains
Darshan-style per-file counters — opens, reads, writes, bytes moved, keyed
by path — alongside whatever op log the concrete backend keeps.  The
counters are deliberately collected at this layer so POSIX and virtual
storage report identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import add

from repro.errors import BackendError
from repro.obs.names import (
    IO_BYTES_READ,
    IO_BYTES_WRITTEN,
    IO_OPENS,
    IO_READS,
    IO_WRITES,
)
from repro.obs.recorder import Recorder


@dataclass(frozen=True)
class IoOp:
    """One recorded storage operation.

    ``kind`` is one of ``create``, ``open``, ``read``, ``write``, ``list``.
    ``nbytes`` is 0 for metadata-only operations.  ``offset`` is -1 when the
    operation is not positional (whole-file write, open).  ``actor`` tags the
    logical process that issued the op (reader rank / aggregator rank), which
    lets the performance model attribute per-process costs.
    """

    kind: str
    path: str
    nbytes: int = 0
    offset: int = -1
    actor: int = -1


def _negative(offset: int, length: int) -> BackendError:
    return BackendError(f"negative offset/length ({offset}, {length})")


class ReadRequest:
    """One file's ranged read, flattened: byte ranges landing back to back.

    ``parts`` are ``(view, offsets, lengths)`` triples.  A part's file
    ranges ``[offsets[i], offsets[i] + lengths[i])`` land in order, back
    to back, in its ``view`` (any writable buffer), which they fill
    exactly.  So a plan's k chunk runs travel as two int lists and one
    destination, not as k views: a pruned row read is three parts (header,
    runs, footer), and :meth:`one` is the one-range case.

    Checked once, here, for every backend: no offset or length is
    negative, and each part's lengths sum to its view's size.  ``end`` is
    the furthest byte any range reaches, so a backend checks bounds with
    one comparison; ``count`` is the number of ranges and ``nbytes`` the
    bytes they land.
    """

    __slots__ = ("parts", "end", "count", "nbytes")

    def __init__(self, parts):
        self.parts = checked = []
        end = count = nbytes = 0
        for view, offsets, lengths in parts:
            view = memoryview(view).cast("B")
            n = len(offsets)
            if n == 1 and len(lengths) == 1:
                offset, size = offsets[0], lengths[0]
                if offset < 0 or size < 0:
                    raise _negative(offset, size)
                top = offset + size
            elif n != len(lengths):
                raise ValueError(f"{n} offsets for {len(lengths)} lengths")
            elif n:
                if min(offsets) < 0 or min(lengths) < 0:
                    raise _negative(
                        *next((o, k) for o, k in zip(offsets, lengths) if o < 0 or k < 0)
                    )
                top, size = max(map(add, offsets, lengths)), sum(lengths)
            else:
                top = size = 0
            if size != len(view):
                raise BackendError(
                    f"ranges of {size} bytes for a {len(view)}-byte destination"
                )
            checked.append((view, offsets, lengths))
            if top > end:
                end = top
            count += n
            nbytes += size
        self.end = end
        self.count = count
        self.nbytes = nbytes

    @classmethod
    def one(cls, offset: int, view) -> "ReadRequest":
        """The one-range request: fill ``view`` from file byte ``offset``."""
        view = memoryview(view).cast("B")
        return cls(((view, (offset,), (len(view),)),))

    def ranges(self) -> tuple[list[int], list[int]]:
        """Every part's offsets and lengths, concatenated in landing order."""
        offsets: list[int] = []
        lengths: list[int] = []
        for _view, offs, lens in self.parts:
            offsets.extend(offs)
            lengths.extend(lens)
        return offsets, lengths

    def __repr__(self) -> str:
        return f"ReadRequest({self.count} ranges, {self.nbytes} bytes, end {self.end})"


class FileBackend(ABC):
    """Minimal filesystem interface shared by POSIX and virtual storage."""

    #: Optional obs recorder; when set, per-file counters accumulate there.
    recorder: Recorder | None = None

    def attach_recorder(self, recorder: Recorder | None) -> None:
        """Route this backend's per-file counters into ``recorder``.

        Pass ``None`` to detach.  Concrete backends call the ``_note_*``
        helpers on their hot paths; with no recorder attached those are a
        single attribute check.
        """
        self.recorder = recorder

    def process_clone(self):
        """A picklable read-equivalent of this backend, or ``None``.

        The process executor ships reads to worker processes only when the
        backend can describe itself picklably; ``None`` (the default) means
        "keep my reads in this process" and callers degrade to threads.
        Stateful wrappers (caches, fault injectors, remote stacks) must
        stay at the default — their in-memory state cannot follow the
        clone.
        """
        return None

    def close(self) -> None:
        """Release pooled resources (open handles, worker threads).

        A no-op by default and idempotent everywhere; a closed backend
        stays usable — pools refill lazily on the next operation.
        """

    # -- instrumentation helpers (no-ops without an attached recorder) ------

    def _note_open(self, path: str) -> None:
        if self.recorder is not None:
            self.recorder.add(IO_OPENS, 1, key=(path,))

    def _note_read(self, path: str, nbytes: int, reads: int = 1) -> None:
        if self.recorder is not None:
            self.recorder.add(IO_READS, reads, key=(path,))
            self.recorder.add(IO_BYTES_READ, nbytes, key=(path,))

    def _note_write(self, path: str, nbytes: int) -> None:
        if self.recorder is not None:
            self.recorder.add(IO_WRITES, 1, key=(path,))
            self.recorder.add(IO_BYTES_WRITTEN, nbytes, key=(path,))

    # -- the operations a backend implements --------------------------------

    @abstractmethod
    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        """Create (or replace) ``path`` with ``data`` in one shot."""

    @abstractmethod
    def read_file(self, path: str, actor: int = -1) -> bytes:
        """Read the entire contents of ``path``."""

    @abstractmethod
    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        """Scatter-gather read: land every range of ``request``.

        The one ranged read.  Each part's view is filled completely —
        short reads are an error — so the destination is caller-owned and
        ranged reads land in a preallocated result with no per-range
        allocation.  One *logical open* of ``path`` serves every range, so
        a reader that wants the header, a handful of pruned particle runs,
        and the footer of one file pays a single open (the dominant fixed
        cost on parallel filesystems) instead of one per range; ``io.reads``
        counts one per range.  Returns total bytes read.
        """

    # -- conveniences over readv (defined here only) ------------------------

    def read_range(self, path: str, offset: int, length: int, actor: int = -1) -> bytes:
        """Read ``length`` bytes at ``offset`` as a one-segment :meth:`readv`."""
        if offset < 0 or length < 0:
            raise BackendError(f"negative offset/length ({offset}, {length})")
        buf = bytearray(length)
        self.readv(path, ReadRequest.one(offset, buf), actor=actor)
        return bytes(buf)

    def readinto(self, path: str, offset: int, view, actor: int = -1) -> int:
        """Fill ``view`` from ``offset`` as a one-range :meth:`readv`."""
        return self.readv(path, ReadRequest.one(offset, view), actor=actor)

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def size(self, path: str) -> int: ...

    @abstractmethod
    def listdir(self, path: str) -> list[str]:
        """Names (not paths) of entries directly under directory ``path``."""

    @abstractmethod
    def delete(self, path: str, missing_ok: bool = False) -> None:
        """Remove ``path``.  With ``missing_ok`` a missing file is a no-op,
        which makes cleanup-after-partial-write idempotent."""

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        parts = [p for p in path.split("/") if p not in ("", ".")]
        if any(p == ".." for p in parts):
            raise ValueError(f"path may not contain '..': {path!r}")
        return "/".join(parts)

    @staticmethod
    def _segments(request: ReadRequest) -> list[tuple[int, memoryview]]:
        """``request``'s ranges as ``(offset, destination view)`` pairs, in
        landing order: the form of backends that handle each range on its
        own (a cache key, a remote range, an in-memory slice)."""
        out = []
        for view, offsets, lengths in request.parts:
            pos = 0
            for offset, length in zip(offsets, lengths):
                out.append((offset, view[pos : pos + length]))
                pos += length
        return out


class WrapperBackend(FileBackend):
    """A backend that delegates to another backend, ``base``.

    Every operation, :meth:`attach_recorder` and :meth:`close` are
    forwarded here, once, so a wrapper (path view, fault injector, cache
    tier, resilience guard) overrides only the operations it changes and
    cannot forget one.  ``process_clone`` is deliberately *not* forwarded:
    a wrapper's state cannot follow a clone into a worker process.
    """

    def __init__(self, base: FileBackend):
        self.base = base

    def attach_recorder(self, recorder: Recorder | None) -> None:
        """Keep ``recorder`` for this layer's own counters and pass it
        down — every actual I/O op runs on the innermost backend, so the
        ``io.*`` counters must accumulate there."""
        self.recorder = recorder
        self.base.attach_recorder(recorder)

    def close(self) -> None:
        self.base.close()

    def _forward(self, op: str, path: str, *args, **kwargs):
        """The single point where a forwarded operation reaches ``base``;
        override to intercept every operation at once."""
        return getattr(self.base, op)(path, *args, **kwargs)

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        self._forward("write_file", path, data, actor=actor)

    def read_file(self, path: str, actor: int = -1) -> bytes:
        return self._forward("read_file", path, actor=actor)

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        return self._forward("readv", path, request, actor=actor)

    def exists(self, path: str) -> bool:
        return self._forward("exists", path)

    def size(self, path: str) -> int:
        return self._forward("size", path)

    def listdir(self, path: str) -> list[str]:
        return self._forward("listdir", path)

    def delete(self, path: str, missing_ok: bool = False) -> None:
        self._forward("delete", path, missing_ok=missing_ok)
