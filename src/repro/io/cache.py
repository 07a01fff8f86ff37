"""A bounded byte-range LRU cache over any :class:`FileBackend`.

The reader's chunked plan turns one query into many small ranged reads, and
the paper's progressive/repeat workloads (Figs. 8–9) re-issue overlapping
queries against the same files.  :class:`CachingBackend` sits between the
reader and real storage and memoizes read results keyed by the *exact*
request — ``(path, offset, length)`` for ranged reads, ``(path,)`` for
whole-file reads — so a warm repeat query performs zero backend I/O.

Design points:

* **Exact-request keys, not block alignment.**  The chunk index already
  coalesces adjacent chunks into stable runs, so identical queries produce
  identical request streams; exact keys make hits deterministic without a
  read-amplifying block size.
* **Bounded by bytes, evicted LRU.**  ``max_bytes`` caps the sum of cached
  payload sizes; inserting past the cap evicts least-recently-used entries.
  A single result larger than the whole budget is served but never stored.
* **Write/delete invalidation.**  Mutating a path drops every cached range
  of that path before the write reaches the base backend, so the cache can
  never serve stale bytes (repair rewrites files under live facades).
  Invalidation also bumps a per-path *epoch*; a read snapshots the epoch
  before touching the base backend and its result is only stored if the
  epoch is unchanged, so a write that interleaves with an in-flight read
  can never get pre-write bytes re-cached behind it (the concurrent
  serving layer reads while repair/compaction writes).
* **Observable.**  With a recorder attached, ``cache.hit`` / ``cache.miss``
  counters accumulate per path and ``cache.evict`` counts discarded
  entries; the plain ``hits``/``misses``/``evictions`` attributes work
  without one.

Thread-safe: the threaded executor issues reads concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable

from repro.errors import ConfigError
from repro.io.backend import FileBackend, ReadRequest, WrapperBackend
from repro.obs.names import CACHE_EVICT, CACHE_HIT, CACHE_MISS

__all__ = ["CachingBackend"]

#: Cache key: ("file", path) or ("range", path, offset, length).
_Key = tuple


class CachingBackend(WrapperBackend):
    """Wraps ``base`` with a bounded byte-range LRU read cache.

    This class is also the cache *core*: keys, epochs, LRU order, the byte
    budget and ``readv`` miss-batching live here once.  Where an entry's
    bytes live is behind three hooks — :meth:`_save`, :meth:`_load`,
    :meth:`_discard` — which keep them in a dict here and in one file per
    entry in :class:`~repro.io.diskcache.DiskCacheBackend`.
    """

    #: Counter names (the disk tier reports under its own).
    _HIT, _MISS, _EVICT = CACHE_HIT, CACHE_MISS, CACHE_EVICT

    def __init__(self, base: FileBackend, max_bytes: int):
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        super().__init__(base)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        #: key -> payload size; insertion order = LRU order.
        self._entries: OrderedDict[_Key, int] = OrderedDict()
        self._data: dict[_Key, bytes] = {}
        self._epochs: dict[str, int] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- where entry bytes live (called with the lock held) ------------------

    def _save(self, key: _Key, path: str, data: bytes) -> None:
        self._data[key] = data

    def _load(self, key: _Key) -> bytes | None:
        """The stored bytes, or ``None`` if storage lost the entry."""
        return self._data.get(key)

    def _discard(self, key: _Key) -> None:
        self._data.pop(key, None)

    # -- cache machinery ----------------------------------------------------

    def _lookup(self, key: _Key, path: str) -> bytes | None:
        with self._lock:
            if key not in self._entries:
                return None
            data = self._load(key)
            if data is None:
                # Torn/vanished in storage: forget it and fall through to a
                # normal miss.
                self._drop(key)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        if self.recorder is not None:
            self.recorder.add(self._HIT, 1, key=(path,))
        return data

    def _epoch(self, path: str) -> int:
        """Snapshot the path's invalidation epoch before a base-backend read."""
        with self._lock:
            return self._epochs.get(path, 0)

    def _store(self, key: _Key, path: str, data: bytes, epoch: int) -> None:
        """Count a miss and cache ``data`` — unless the path was invalidated
        since ``epoch`` was taken, or the entry alone exceeds the budget."""
        evicted: list[_Key] = []
        with self._lock:
            self.misses += 1
            if (
                self._epochs.get(path, 0) == epoch
                and len(data) <= self.max_bytes
                and key not in self._entries
            ):
                self._save(key, path, data)
                self._entries[key] = len(data)
                self._bytes += len(data)
                while self._bytes > self.max_bytes:
                    old_key = next(iter(self._entries))
                    self._drop(old_key)
                    self.evictions += 1
                    evicted.append(old_key)
        if self.recorder is not None:
            self.recorder.add(self._MISS, 1, key=(path,))
            for old_key in evicted:
                self.recorder.add(self._EVICT, 1, key=(old_key[1],))

    def _drop(self, key: _Key) -> None:
        """Forget one entry and its bytes (caller holds the lock)."""
        self._bytes -= self._entries.pop(key)
        self._discard(key)

    def _stale_after_write(self, path: str) -> tuple[tuple[str, ...], list[_Key]]:
        """What mutating ``path`` invalidates: the paths whose epoch bumps
        and the cached keys to drop (caller holds the lock)."""
        return (path,), [k for k in self._entries if k[1] == path]

    def _invalidate(self, path: str) -> None:
        with self._lock:
            paths, stale = self._stale_after_write(path)
            for p in paths:
                self._epochs[p] = self._epochs.get(p, 0) + 1
            for key in stale:
                self._drop(key)

    def _cached(self, key: _Key, path: str, fetch: Callable[[], bytes]) -> bytes:
        """The entry under ``key``, fetching (and caching) it on a miss."""
        data = self._lookup(key, path)
        if data is None:
            epoch = self._epoch(path)
            data = fetch()
            self._store(key, path, data, epoch)
        return data

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._drop(key)

    # -- reads (cached) -----------------------------------------------------

    def read_file(self, path: str, actor: int = -1) -> bytes:
        path = self._normalize(path)
        return self._cached(
            ("file", path), path, lambda: self.base.read_file(path, actor=actor)
        )

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        """Serve cached ranges from the cache; fetch the misses in one
        :meth:`FileBackend.readv` on the base (one shared open), then cache
        copies of what was fetched (a cached range must outlive any one
        destination buffer)."""
        path = self._normalize(path)
        total = 0
        missing: list[tuple[int, memoryview]] = []
        for offset, out in self._segments(request):
            data = self._lookup(("range", path, offset, len(out)), path)
            if data is not None:
                out[:] = data
                total += len(out)
            else:
                missing.append((offset, out))
        if missing:
            epoch = self._epoch(path)
            total += self.base.readv(
                path,
                ReadRequest([(out, (offset,), (len(out),)) for offset, out in missing]),
                actor=actor,
            )
            for offset, out in missing:
                self._store(
                    ("range", path, offset, len(out)), path, bytes(out), epoch
                )
        return total

    # -- mutations (invalidate, then forward) --------------------------------

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        path = self._normalize(path)
        self._invalidate(path)
        self.base.write_file(path, data, actor=actor)

    def delete(self, path: str, missing_ok: bool = False) -> None:
        path = self._normalize(path)
        self._invalidate(path)
        self.base.delete(path, missing_ok=missing_ok)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.base!r}, max_bytes={self.max_bytes}, "
            f"cached={self.cached_bytes}, hits={self.hits}, "
            f"misses={self.misses})"
        )
