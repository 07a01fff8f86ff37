"""Real-filesystem backend rooted at a directory.

The read side is built for raw speed (the Fig. 7 scaling story):

* **Pooled handles** — every read primitive serves from a bounded LRU pool
  of open file handles instead of paying ``open``+``seek``+``read`` per
  call.  A pooled handle is validated against the file's identity
  ``(st_ino, st_size, st_mtime_ns)`` on every acquire, so an atomic
  ``os.replace`` — ours or anyone else's — is detected and the stale
  handle dropped before a single byte is served.
* **Map a file only when it is read again** — a fresh handle is opened
  unmapped, and its calls land their ranges with ``os.preadv`` from the
  pooled fd (``read_file`` with one ``os.pread``).  The pool maps the
  file, read-only and within the ``max_mapped_bytes`` budget, when it
  hands the same handle out again.  A one-shot read (a fresh CLI or viz
  process, ``cold_open_box``'s data files) so holds the bytes it copied,
  not a window of page cache faulted in around each run, while a file
  read again (the table within one cold open, every file of a warm
  facade) is served from its mapping.  The rule is observed from reuse,
  not configured.
* **Three ways to land a range on a mapped handle, picked by its
  length** — a range below 64 KiB is a slice assignment from the
  handle's shared ``mmap`` view, one below the bulk threshold (4 MiB,
  :data:`_BULK_READ_BYTES`) a numpy copy from it, which releases the
  GIL; a range at or above the threshold is read with ``os.preadv`` from
  the pooled fd straight into the caller's buffer.  Copying a bulk range
  out of the mapping would count each of its pages twice in the reader's
  RSS: once mapped, once in the result.  The rule bets that bulk ranges
  are scans, read once per op; a bulk range read again pays ``preadv``'s
  premium each time.  ``read_file`` of a file at or above the threshold
  is an ``os.pread`` likewise.
* **One ``preadv`` loop** — an unmapped handle's ranges (a fresh handle,
  a file outside the mapping budget, mmap disabled) and a mapped one's
  bulk ranges land through :func:`_preadv_into`, which walks the
  request's own parts and batches offset-contiguous ranges into single
  ``preadv`` calls on the pooled fd.  ``pread``/``preadv`` release the
  GIL, so concurrent readers overlap genuine device waits.

All of it stays behind the :class:`FileBackend` contract: per-file
Darshan counters, error messages, and atomic-write semantics are
unchanged, so Virtual/Prefix/Fault/Remote backends and every existing
caller are untouched.  ``io.opens`` counts files opened: one per
handle-pool miss, while a pooled handle serving another call is an
``io.handle_reuse``.  ``io.mmap_hit`` / ``io.mmap_miss`` count calls
served on a mapped / an unmapped handle (a hit's bulk ranges are still
read by ``preadv``; a fresh handle's first call is always a miss), and
``io.bulk_bytes`` the bytes bulk landing read.

Writes are atomic: data lands in a temp file in the target directory, is
fsynced, and is renamed into place with ``os.replace``.  A reader (or a
crash) can therefore never observe a torn file — only the old content or
the new content.  ``write_file``/``delete`` invalidate the path's pooled
handle so subsequent reads always observe the new content.

Instances are picklable (the handle pool and any attached recorder are
process-local and deliberately dropped), which is what lets the process
executor ship a backend description to worker processes.
"""

from __future__ import annotations

import itertools
import mmap
import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.errors import BackendError
from repro.io.backend import FileBackend, ReadRequest
from repro.obs.names import IO_BULK_BYTES, IO_HANDLE_REUSES, IO_MMAP_HITS, IO_MMAP_MISSES

#: Process-wide counter so concurrent writers of the same path (simulated
#: aggregator ranks are threads) never share a temp file.
_TMP_IDS = itertools.count()

#: Mapped ranges at least this long are landed with a numpy copy, which
#: releases the GIL so executor threads copy in parallel; shorter ones by
#: buffer slice assignment, whose fixed cost is several times smaller and
#: which finishes before another thread could have been scheduled anyway.
#: A pruned read's chunk runs are a few KiB each, a scan's payload MiBs.
_GIL_RELEASING_COPY_BYTES = 1 << 16

#: Ranges at least this long are read with ``os.preadv`` from the pooled
#: fd straight into the caller's buffer, never copied out of the mapping,
#: which would add the range's pages to the reader's RSS beside the copy
#: (``full_scan`` peak RSS 280 -> 184 MB).  ``preadv`` costs more than the mapped numpy copy
#: at every size, page cache hot and destination prefaulted (2 vCPU Xeon,
#: python 3.11.7, numpy 2.4.6; median of 3 runs, each the best of 7
#: passes reading 256 MiB from a 64 MiB file):
#:
#: ========  ======
#: range     preadv
#: ========  ======
#: 64 KiB    +17%
#: 256 KiB   +33%
#: 1 MiB     +23%
#: 4 MiB     +12%
#: 16 MiB    +17%
#: ========  ======
#:
#: so the threshold keeps that premium off the ranges workloads re-read:
#: a level-10 LOD prefix is 1 MiB per file, and a 64 KiB threshold made
#: ``lod_prefix`` slower in 4 of 4 pairs.  A scan's per-file payload
#: (15 MB on the e2e fixture R) is bulk, where the premium is lost in the
#: op: ``full_scan`` ``op_p50_ms`` +2.7% in the median of 10 pairs, inside
#: the parent's own quartile spread.  Of the e2e workloads only
#: ``full_scan`` lands ranges this large (all of its bytes read); the box,
#: LOD, columnar and serving workloads' largest range is 1 MiB.
_BULK_READ_BYTES = 1 << 22

#: Most buffers one ``preadv`` call accepts (POSIX IOV_MAX is >= 1024 on
#: every platform we run on; staying at the floor avoids a sysconf probe).
_IOV_MAX = 1024


class _Handle:
    """One pooled open file: fd, optional mmap view, and a refcount.

    The refcount lets the pool evict (or invalidate) a handle while
    another thread is mid-read on it: eviction marks the handle closed
    and the *last* releaser actually closes the fd/mapping, so a served
    view is never yanked out from under a reader.  ``mm`` is None until
    the pool hands the handle out again; a read call takes it once, as
    the handle is mapped while other calls may be reading it.
    """

    __slots__ = ("fd", "size", "sig", "mm", "refs", "closed")

    def __init__(self, fd: int, size: int, sig: tuple):
        self.fd = fd
        self.size = size
        self.sig = sig
        self.mm: mmap.mmap | None = None
        self.refs = 1
        self.closed = False

    def _close_now(self) -> None:
        if self.mm is not None:
            try:
                self.mm.close()
            except (OSError, ValueError):
                pass
            self.mm = None
        if self.fd >= 0:
            try:
                os.close(self.fd)
            except OSError:
                pass
            self.fd = -1


class _HandlePool:
    """Bounded LRU of open handles, keyed by normalized backend path."""

    def __init__(self, max_handles: int, use_mmap: bool, max_mapped_bytes: int):
        self.max_handles = max_handles
        self.use_mmap = use_mmap
        self.max_mapped_bytes = max_mapped_bytes
        self._lock = threading.Lock()
        self._handles: OrderedDict[str, _Handle] = OrderedDict()
        self._mapped_bytes = 0
        self.opens = 0
        self.reuses = 0
        self.evictions = 0
        self.invalidations = 0

    def acquire(self, norm: str, full: str) -> tuple[_Handle, bool]:
        """An open, identity-validated handle for ``norm``; caller must
        :meth:`release`.  Returns ``(handle, reused)``.

        A pooled handle costs one ``stat`` to validate, and is mapped
        (within the budget) the first time it is handed out again; a
        fresh one is opened unmapped.  A fresh handle's identity, size and
        mapping length come from ``fstat`` of the descriptor itself, so a
        file replaced between any path lookup and the ``open`` is pooled
        under its own identity, never another's.
        """
        if norm in self._handles:  # a lock-free peek; re-checked below
            st = os.stat(full)
            sig = (st.st_ino, st.st_size, st.st_mtime_ns)
            with self._lock:
                handle = self._handles.get(norm)
                if handle is not None:
                    if handle.sig == sig:
                        self._handles.move_to_end(norm)
                        handle.refs += 1
                        self.reuses += 1
                        if handle.mm is None and self.use_mmap:
                            self._map_locked(handle)
                        return handle, True
                    # The file was replaced behind our back (atomic rewrite,
                    # external tooling, a test corrupting bytes in place):
                    # drop the stale handle and fall through to a fresh open.
                    self._drop_locked(norm, handle)
        fd = os.open(full, os.O_RDONLY)
        try:
            st = os.fstat(fd)
        except OSError:
            os.close(fd)
            raise
        handle = _Handle(fd, st.st_size, (st.st_ino, st.st_size, st.st_mtime_ns))
        with self._lock:
            self.opens += 1
            # Another thread may have pooled the same path while we were
            # opening; replace its entry (ours is at least as fresh).
            old = self._handles.pop(norm, None)
            if old is not None:
                self._drop_locked(norm, old, pop=False)
            self._handles[norm] = handle
            while len(self._handles) > self.max_handles:
                victim_key, victim = next(iter(self._handles.items()))
                self._drop_locked(victim_key, victim)
                self.evictions += 1
        return handle, False

    def _map_locked(self, handle: _Handle) -> None:
        """Map ``handle``'s file read-only if it fits the budget; a file
        that does not (or will not map) stays served by its fd."""
        size = handle.size
        if size > 0 and self._mapped_bytes + size <= self.max_mapped_bytes:
            try:
                handle.mm = mmap.mmap(handle.fd, size, prot=mmap.PROT_READ)
            except (OSError, ValueError):
                return
            self._mapped_bytes += size

    def release(self, handle: _Handle) -> None:
        with self._lock:
            handle.refs -= 1
            if handle.closed and handle.refs <= 0:
                self._account_unmap(handle)
                handle._close_now()

    def invalidate(self, norm: str) -> None:
        """Forget ``norm``'s handle (after a write/delete of the path)."""
        with self._lock:
            handle = self._handles.get(norm)
            if handle is not None:
                self._drop_locked(norm, handle)
                self.invalidations += 1

    def close_all(self) -> None:
        with self._lock:
            for norm, handle in list(self._handles.items()):
                self._drop_locked(norm, handle)

    def _drop_locked(self, norm: str, handle: _Handle, pop: bool = True) -> None:
        if pop:
            self._handles.pop(norm, None)
        handle.closed = True
        if handle.refs <= 0:
            self._account_unmap(handle)
            handle._close_now()

    def _account_unmap(self, handle: _Handle) -> None:
        if handle.mm is not None:
            self._mapped_bytes -= handle.size

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "opens": self.opens,
                "reuses": self.reuses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "pooled": len(self._handles),
                "mapped_bytes": self._mapped_bytes,
            }


def _numpy_copy(mm: mmap.mmap, offset: int, out: memoryview) -> None:
    """Land ``len(out)`` mapped bytes at ``offset`` in ``out``.  numpy
    copies release the GIL for large transfers, unlike memoryview slice
    assignment."""
    np.copyto(
        np.frombuffer(out, dtype=np.uint8),
        np.frombuffer(mm, dtype=np.uint8, count=len(out), offset=offset),
    )


def _preadv_into(fd: int, full: str, parts) -> int:
    """Land ``parts`` — a request's ``(view, offsets, lengths)`` triples —
    from ``fd``; returns the bytes of ranges at or above the bulk threshold.

    Offset-contiguous ranges, across parts too, are gathered into single
    ``os.preadv`` calls (capped at ``_IOV_MAX`` buffers), so a coalesced
    chunk-run read costs one syscall per contiguous extent rather than
    one per range.  A file that shrank under the request raises a
    short-read error.
    """
    bulk = 0
    bufs: list[memoryview] = []
    start = end = 0
    for view, offsets, lengths in parts:
        pos = 0
        for offset, length in zip(offsets, lengths):
            if not length:
                continue
            if offset != end or len(bufs) == _IOV_MAX:
                if bufs:
                    _preadv_extent(fd, full, start, bufs, end - start)
                bufs = []
                start = end = offset
            bufs.append(view[pos : pos + length])
            pos += length
            end += length
            if length >= _BULK_READ_BYTES:
                bulk += length
    if bufs:
        _preadv_extent(fd, full, start, bufs, end - start)
    return bulk


def _preadv_extent(fd: int, full: str, start: int, bufs: list, size: int) -> None:
    """Fill ``bufs``, laid end to end from file byte ``start`` over
    ``size`` bytes: one ``preadv``, resumed where the kernel stopped short."""
    done = os.preadv(fd, bufs, start)
    while done < size:
        # Resume inside the first buffer not yet filled.
        i, filled = 0, done
        while filled >= len(bufs[i]):
            filled -= len(bufs[i])
            i += 1
        n = os.preadv(fd, [bufs[i][filled:], *bufs[i + 1 :]], start + done)
        if n <= 0:
            raise BackendError(
                f"short read from {full}: wanted {len(bufs[i])} bytes at "
                f"{start + done - filled}, got {filled}"
            )
        done += n


class PosixBackend(FileBackend):
    """Stores backend paths as real files under ``root``.

    ``root`` is created on construction if missing (pass ``create=False``
    for read-only uses that must not leave directories behind).  All
    library paths are relative; escaping the root (via ``..``) is rejected
    by the base class.

    ``use_mmap`` enables the zero-copy mapped fast path (on by default);
    ``max_handles`` bounds the LRU handle pool and ``max_mapped_bytes``
    bounds the total bytes mapped at once — files past the budget serve
    through ``pread``/``preadv`` on the pooled fd instead.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        create: bool = True,
        use_mmap: bool = True,
        max_handles: int = 64,
        max_mapped_bytes: int = 1 << 30,
    ):
        # Kept as a string, checked with one stat: a cold open constructs a
        # backend per dataset, and a pathlib.Path costs more than the stat.
        self._root = os.fspath(root)
        if create:
            try:
                os.makedirs(self._root, exist_ok=True)
            except OSError as exc:
                raise BackendError(f"cannot create root {self._root}: {exc}") from exc
        elif not os.path.isdir(self._root) and os.path.exists(self._root):
            raise BackendError(f"backend root {self._root} is not a directory")
        self.use_mmap = bool(use_mmap)
        self.max_handles = int(max_handles)
        self.max_mapped_bytes = int(max_mapped_bytes)
        self._init_local()

    def _init_local(self) -> None:
        """The process-local state: the handle pool and the path map.

        The map takes each path string a caller passes to its normalised
        pool key and full filesystem path, so a warm read resolves its
        path with one dict lookup.  It holds at most ``max_handles``
        strings, and a path containing ``..`` never enters it.
        """
        self._pool = _HandlePool(
            self.max_handles, self.use_mmap, self.max_mapped_bytes
        )
        self._paths: dict[str, tuple[str, str]] = {}
        self._paths_lock = threading.Lock()

    # -- pickling (process-executor transport) ------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The pool, the path map and any attached recorder are process-local.
        for name in ("_pool", "_paths", "_paths_lock", "recorder"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.recorder = None
        self._init_local()

    def process_clone(self):
        """A picklable equivalent of this backend for worker processes.

        The pool/recorder are dropped in transit (see ``__getstate__``);
        everything else — root, mmap policy — ships as-is.
        """
        return self

    @property
    def root(self) -> Path:
        return Path(self._root)

    def _full(self, path: str) -> Path:
        return Path(self._root, self._normalize(path))

    def _resolve(self, path: str) -> tuple[str, str]:
        """``(pool key, full path)`` of ``path``, both as ``str``."""
        hit = self._paths.get(path)
        if hit is None:
            norm = self._normalize(path)  # raises on '..', before caching
            root = self._root
            hit = (norm, os.path.join(root, norm) if norm else root)
            with self._paths_lock:
                if self._paths and len(self._paths) >= self.max_handles:
                    del self._paths[next(iter(self._paths))]
                self._paths[path] = hit
        return hit

    # -- instrumentation ----------------------------------------------------

    def _note_mmap(self, path: str, hit: bool) -> None:
        if self.recorder is not None:
            name = IO_MMAP_HITS if hit else IO_MMAP_MISSES
            self.recorder.add(name, 1, key=(path,))

    def _note_reuse(self, path: str) -> None:
        if self.recorder is not None:
            self.recorder.add(IO_HANDLE_REUSES, 1, key=(path,))

    def _note_bulk(self, path: str, nbytes: int) -> None:
        if self.recorder is not None and nbytes:
            self.recorder.add(IO_BULK_BYTES, nbytes, key=(path,))

    def pool_stats(self) -> dict[str, int]:
        """Handle-pool counters (opens/reuses/evictions/...) and the number
        of resolved path strings held (``paths``); for tests."""
        return {**self._pool.stats(), "paths": len(self._paths)}

    def close(self) -> None:
        """Drop every pooled handle (idempotent; the pool refills lazily)."""
        self._pool.close_all()

    # -- writes -------------------------------------------------------------

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        full = self._full(path)
        full.parent.mkdir(parents=True, exist_ok=True)
        tmp = full.with_name(f".{full.name}.tmp-{os.getpid()}-{next(_TMP_IDS)}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, full)
            self._pool.invalidate(self._normalize(path))
            self._note_open(self._normalize(path))
            self._note_write(self._normalize(path), len(data))
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise BackendError(f"writing {full}: {exc}") from exc

    # -- reads --------------------------------------------------------------

    def _acquire(self, norm: str, full: str) -> _Handle:
        """A pooled handle for one read call; an open only on a pool miss."""
        try:
            handle, reused = self._pool.acquire(norm, full)
        except OSError as exc:
            raise BackendError(f"reading {full}: {exc}") from exc
        if reused:
            self._note_reuse(norm)
        else:
            self._note_open(norm)
        return handle

    def read_file(self, path: str, actor: int = -1) -> bytes:
        norm, full = self._resolve(path)
        handle = self._acquire(norm, full)
        mm = handle.mm
        try:
            if mm is not None and handle.size < _BULK_READ_BYTES:
                data = mm[: handle.size]
            else:
                # One pread allocates the result and the kernel fills it:
                # landing in a buffer would cost a second copy to be bytes.
                parts = []
                pos = 0
                while pos < handle.size:
                    chunk = os.pread(handle.fd, handle.size - pos, pos)
                    if not chunk:
                        break
                    parts.append(chunk)
                    pos += len(chunk)
                data = b"".join(parts)
            if len(data) >= _BULK_READ_BYTES:
                self._note_bulk(norm, len(data))
            self._note_mmap(norm, mm is not None)
        except OSError as exc:
            raise BackendError(f"reading {full}: {exc}") from exc
        finally:
            self._pool.release(handle)
        self._note_read(norm, len(data))
        return data

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        norm, full = self._resolve(path)
        handle = self._acquire(norm, full)
        mm = handle.mm
        try:
            if request.end > handle.size:
                offset, out = next(
                    (o, v) for o, v in self._segments(request)
                    if o + len(v) > handle.size
                )
                raise BackendError(
                    f"short read from {full}: wanted {len(out)} bytes at "
                    f"{offset}, got {max(0, handle.size - offset)}"
                )
            if mm is None:
                bulk_bytes = _preadv_into(handle.fd, full, request.parts)
            else:
                bulk = []
                # Released before the handle is: a pooled mapping cannot
                # close while a buffer export is outstanding.
                with memoryview(mm) as mapped:
                    for view, offsets, lengths in request.parts:
                        pos = 0
                        for offset, length in zip(offsets, lengths):
                            stop = pos + length
                            if length < _GIL_RELEASING_COPY_BYTES:
                                view[pos:stop] = mapped[offset : offset + length]
                            elif length < _BULK_READ_BYTES:
                                _numpy_copy(mm, offset, view[pos:stop])
                            else:
                                bulk.append((view[pos:stop], (offset,), (length,)))
                            pos = stop
                bulk_bytes = _preadv_into(handle.fd, full, bulk) if bulk else 0
            self._note_bulk(norm, bulk_bytes)
            self._note_read(norm, request.nbytes, reads=request.count)
            self._note_mmap(norm, mm is not None)
        except OSError as exc:
            raise BackendError(f"reading {full}: {exc}") from exc
        finally:
            self._pool.release(handle)
        return request.nbytes

    # -- metadata ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.exists(self._resolve(path)[1])

    def size(self, path: str) -> int:
        full = self._resolve(path)[1]
        try:
            return os.stat(full).st_size
        except OSError as exc:
            raise BackendError(f"stat {path!r}: {exc}") from exc

    def listdir(self, path: str) -> list[str]:
        full = self._resolve(path)[1]
        try:
            return sorted(os.listdir(full))
        except OSError as exc:
            raise BackendError(f"listing {full}: {exc}") from exc

    def delete(self, path: str, missing_ok: bool = False) -> None:
        try:
            self._full(path).unlink(missing_ok=missing_ok)
        except OSError as exc:
            raise BackendError(f"deleting {path!r}: {exc}") from exc
        self._pool.invalidate(self._normalize(path))

    def __repr__(self) -> str:
        return f"PosixBackend({self._root!r})"
