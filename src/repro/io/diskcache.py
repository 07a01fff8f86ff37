"""A crash-safe local-disk cache tier under the block-cache interface.

The RAM LRU (:class:`~repro.io.cache.CachingBackend`) is fast but small and
dies with the process; the remote tier is durable but slow, metered, and
occasionally *gone*.  :class:`DiskCacheBackend` is the tier between them: a
bounded, LRU-evicted cache of read results persisted as one small file per
entry in a local directory.  It *is* the RAM cache with a different place to
keep entry bytes — a subclass that inherits the exact-request keys, per-path
invalidation epochs, store-after-invalidate guard, LRU order, byte budget
and ``readv`` miss-batching — so the two compose into the stack
``RAM → disk → resilient remote`` with identical semantics at every tier.

Crash safety is inherited from the library's one durable-write idiom: every
entry is written to a temp file, fsynced, and renamed into place with
``os.replace``, so the directory only ever contains whole entries.  Each
entry file is self-describing — a one-line JSON header (path, offset,
length, payload digest) followed by the payload — which is what makes
recovery trivial: on construction the directory is scanned, entries that
parse and match their digest are adopted into the LRU (ordered by mtime),
and anything torn, truncated, or stale-format is deleted.  A cache that was
warm before a crash (or a previous process) is warm after it — that is the
"recently-warm queries survive a full remote outage" property the
resilience stack leans on.

Unlike the RAM tier, this tier also caches **metadata** — ``size``,
``exists``, and ``listdir`` results — as ordinary entries.  Against a remote
object store every metadata probe is a metered HEAD/LIST request, and the
read path does a ``size`` preflight before each data read, so uncached
metadata would both bill per query and make a fully-warm dataset unreadable
the moment the store goes down.  Metadata entries obey the same invalidation
rules as data: mutating a path drops its size/exists entries and every
cached listing of an ancestor directory (and bumps their epochs, so an
in-flight probe can never re-cache a pre-mutation answer).

Counters are the RAM tier's under distinct names (``cache.disk_hit`` /
``cache.disk_miss`` / ``cache.disk_evict``, keyed by path) so a trace shows
exactly which tier served every read.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

from repro.io.backend import FileBackend
from repro.io.cache import CachingBackend
from repro.obs.names import CACHE_DISK_EVICT, CACHE_DISK_HIT, CACHE_DISK_MISS

__all__ = ["DiskCacheBackend"]

#: Entry-format magic; bump to orphan (and GC) entries from older layouts.
_MAGIC = "repro-diskcache-v1"

#: Process-wide counter so concurrent stores never share a temp file.
_TMP_IDS = itertools.count()

#: Cache key: ("file", path), ("range", path, offset, length), or a
#: metadata probe — ("size", path), ("exists", path), ("list", dirpath).
_Key = tuple


def _ancestor_dirs(path: str) -> tuple[str, ...]:
    """Every directory whose listing ``path`` appears under, root included:
    ``"a/b/c" -> ("a/b", "a", "")``."""
    parts = path.split("/")
    return tuple("/".join(parts[:i]) for i in range(len(parts) - 1, -1, -1))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _entry_name(key: _Key) -> str:
    """Stable filename for a key (flat directory, collision-free)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32] + ".entry"


class DiskCacheBackend(CachingBackend):
    """Wraps ``base`` with a bounded, persistent, LRU disk cache."""

    _HIT, _MISS, _EVICT = CACHE_DISK_HIT, CACHE_DISK_MISS, CACHE_DISK_EVICT

    def __init__(self, base: FileBackend, cache_dir: str | os.PathLike, max_bytes: int):
        super().__init__(base, max_bytes)
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Entries adopted / discarded by the recovery scan (observability
        #: for crash tests).
        self.recovered = 0
        self.discarded = 0
        self._recover()

    # -- entry files: where this tier's bytes live ---------------------------

    def _save(self, key: _Key, path: str, data: bytes) -> None:
        """Atomically persist one entry under its key-derived filename."""
        name = _entry_name(key)
        header = json.dumps(
            {
                "magic": _MAGIC,
                "key": list(key),
                "path": path,
                "size": len(data),
                "digest": _digest(data),
            },
            separators=(",", ":"),
        ).encode()
        full = self.cache_dir / name
        tmp = full.with_name(f".{name}.tmp-{os.getpid()}-{next(_TMP_IDS)}")
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(b"\n")
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, full)

    def _load(self, key: _Key) -> bytes | None:
        parsed = self._read_entry(_entry_name(key))
        return parsed[1] if parsed is not None else None

    def _discard(self, key: _Key) -> None:
        self._unlink(_entry_name(key))

    def _read_entry(self, name: str) -> tuple[_Key, bytes] | None:
        """Parse one entry file; ``None`` (never an exception) if unusable."""
        try:
            raw = (self.cache_dir / name).read_bytes()
            head, _, payload = raw.partition(b"\n")
            meta = json.loads(head)
            if meta.get("magic") != _MAGIC:
                return None
            if len(payload) != meta["size"] or _digest(payload) != meta["digest"]:
                return None
            return tuple(meta["key"]), payload
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _unlink(self, name: str) -> None:
        try:
            (self.cache_dir / name).unlink(missing_ok=True)
        except OSError:
            pass

    def _recover(self) -> None:
        """Adopt whole entries left by a previous process; GC everything else.

        ``os.replace`` guarantees each surviving entry file is complete, so
        recovery is just parse-or-delete.  Adopted entries are LRU-ordered
        by mtime (the best available proxy for previous recency) and the
        byte budget is re-enforced, evicting oldest-first if the directory
        outgrew a smaller configured cap.
        """
        found: list[tuple[float, str, _Key, int]] = []
        for entry in sorted(self.cache_dir.iterdir()):
            name = entry.name
            if name.startswith("."):
                # A temp file is, by construction, an abandoned torn write.
                parsed = None
            elif name.endswith(".entry"):
                parsed = self._read_entry(name)
            else:
                continue
            # Entries are found again by their key-derived name, so one
            # sitting under any other name is as unusable as a torn one.
            if parsed is None or name != _entry_name(parsed[0]):
                self._unlink(name)
                self.discarded += 1
                continue
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue
            found.append((mtime, name, parsed[0], len(parsed[1])))
        for _mtime, _name, key, size in sorted(found):
            self._entries[key] = size
            self._bytes += size
            self.recovered += 1
        while self._bytes > self.max_bytes and self._entries:
            self._drop(next(iter(self._entries)))
            self.recovered -= 1
            self.discarded += 1

    # -- invalidation reaches ancestor listings ------------------------------

    def _stale_after_write(self, path: str) -> tuple[tuple[str, ...], list[_Key]]:
        dirs = _ancestor_dirs(path)
        return (path, *dirs), [
            k
            for k in self._entries
            if k[1] == path or (k[0] == "list" and k[1] in dirs)
        ]

    # -- metadata (cached: every probe is a metered remote request) ----------

    def exists(self, path: str) -> bool:
        path = self._normalize(path)
        data = self._cached(
            ("exists", path), path, lambda: b"1" if self.base.exists(path) else b"0"
        )
        return data == b"1"

    def size(self, path: str) -> int:
        path = self._normalize(path)
        return int(
            self._cached(
                ("size", path), path, lambda: str(self.base.size(path)).encode()
            )
        )

    def listdir(self, path: str) -> list[str]:
        path = self._normalize(path)
        data = self._cached(
            ("list", path), path, lambda: json.dumps(self.base.listdir(path)).encode()
        )
        return list(json.loads(data))
