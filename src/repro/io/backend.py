"""The storage-backend interface and the I/O operation record.

Backends are deliberately tiny: whole-file create/write, ranged reads, and
directory listing are all the library needs.  Paths are POSIX-style strings
relative to the backend root ("data/file_0.pbin"); backends own the mapping
to whatever actually stores the bytes.

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

    @abstractmethod
    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        """Create (or replace) ``path`` with ``data`` in one shot."""

    @abstractmethod
    def read_file(self, path: str, actor: int = -1) -> bytes:
        """Read the entire contents of ``path``."""

    @abstractmethod
    def read_range(
        self, path: str, offset: int, length: int, actor: int = -1
    ) -> bytes:
        """Read ``length`` bytes at ``offset``.  Short reads are an error."""

    def readinto(
        self, path: str, offset: int, view, actor: int = -1
    ) -> int:
        """Read ``len(view)`` bytes at ``offset`` directly into ``view``.

        ``view`` is any writable buffer (memoryview, ndarray byte view).
        Same contract as :meth:`read_range` — short reads are an error —
        but the destination is caller-owned, so scatter-gather consumers
        can land ranged reads in a preallocated result with no per-range
        allocation.  This default copies through :meth:`read_range`;
        concrete backends override it with a genuinely copy-free path.
        """
        out = memoryview(view).cast("B")
        data = self.read_range(path, offset, len(out), actor=actor)
        out[:] = data
        return len(out)

    def readv(self, path: str, segments, actor: int = -1) -> int:
        """Scatter-gather read: fill each ``(offset, view)`` in ``segments``.

        One *logical open* of ``path`` serves every segment, so a reader
        that wants the header, a handful of pruned particle runs, and the
        footer of one file pays a single open (the dominant fixed cost on
        parallel filesystems) instead of one per range.  Segments follow
        the :meth:`readinto` contract; returns total bytes read.  This
        default loops over :meth:`readinto` (one open per segment) —
        concrete backends override it to share the open.
        """
        total = 0
        for offset, view in segments:
            total += self.readinto(path, offset, view, actor=actor)
        return total

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
