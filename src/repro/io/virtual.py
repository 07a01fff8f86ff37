"""In-memory backend with full operation recording.

Used three ways:

* fast functional tests (no disk churn),
* op-stream capture for the performance models — a write or read performed
  against a :class:`VirtualBackend` leaves behind the exact sequence of
  creates/opens/ranged-reads the algorithm issued, which
  :mod:`repro.perf` replays against a machine's storage model,
* access-pattern assertions ("reading this box opened exactly one file").

Thread-safe: simulated aggregator ranks write concurrently.
"""

from __future__ import annotations

import threading

from repro.errors import BackendError
from repro.io.backend import FileBackend, IoOp, ReadRequest


class VirtualBackend(FileBackend):
    """A dict-backed filesystem that logs every operation."""

    def __init__(self):
        self._files: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.ops: list[IoOp] = []

    def _log(self, op: IoOp) -> None:
        self.ops.append(op)

    # -- FileBackend interface ------------------------------------------------

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        path = self._normalize(path)
        with self._lock:
            created = path not in self._files
            self._files[path] = bytes(data)
            if created:
                self._log(IoOp("create", path, actor=actor))
            self._log(IoOp("write", path, nbytes=len(data), actor=actor))
        self._note_open(path)
        self._note_write(path, len(data))

    def read_file(self, path: str, actor: int = -1) -> bytes:
        path = self._normalize(path)
        with self._lock:
            data = self._files.get(path)
            if data is None:
                raise BackendError(f"no such virtual file: {path!r}")
            self._log(IoOp("open", path, actor=actor))
            self._log(IoOp("read", path, nbytes=len(data), offset=0, actor=actor))
        self._note_open(path)
        self._note_read(path, len(data))
        return data

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        path = self._normalize(path)
        segs = self._segments(request)
        total = 0
        with self._lock:
            data = self._files.get(path)
            if data is None:
                raise BackendError(f"no such virtual file: {path!r}")
            for offset, out in segs:
                if offset + len(out) > len(data):
                    raise BackendError(
                        f"short read from {path!r}: wanted {len(out)} bytes "
                        f"at {offset}, file has {len(data)}"
                    )
            self._log(IoOp("open", path, actor=actor))
            for offset, out in segs:
                self._log(
                    IoOp(
                        "read", path, nbytes=len(out), offset=offset, actor=actor
                    )
                )
                total += len(out)
        self._note_open(path)
        for offset, out in segs:
            self._note_read(path, len(out))
            out[:] = data[offset : offset + len(out)]
        return total

    def exists(self, path: str) -> bool:
        with self._lock:
            return self._normalize(path) in self._files

    def size(self, path: str) -> int:
        path = self._normalize(path)
        with self._lock:
            data = self._files.get(path)
        if data is None:
            raise BackendError(f"no such virtual file: {path!r}")
        return len(data)

    def listdir(self, path: str) -> list[str]:
        prefix = self._normalize(path)
        prefix = prefix + "/" if prefix else ""
        with self._lock:
            self._log(IoOp("list", prefix or "."))
            names = {
                p[len(prefix) :].split("/", 1)[0]
                for p in self._files
                if p.startswith(prefix)
            }
        return sorted(names)

    def delete(self, path: str, missing_ok: bool = False) -> None:
        path = self._normalize(path)
        with self._lock:
            if path not in self._files:
                if missing_ok:
                    return
                raise BackendError(f"no such virtual file: {path!r}")
            del self._files[path]

    # -- inspection helpers ------------------------------------------------------

    def clear_ops(self) -> None:
        with self._lock:
            self.ops = []

    def ops_of_kind(self, kind: str) -> list[IoOp]:
        with self._lock:
            return [op for op in self.ops if op.kind == kind]

    def files_touched(self, kind: str = "open", actor: int | None = None) -> set[str]:
        with self._lock:
            return {
                op.path
                for op in self.ops
                if op.kind == kind and (actor is None or op.actor == actor)
            }

    def file_count(self) -> int:
        with self._lock:
            return len(self._files)

    def total_stored_bytes(self) -> int:
        with self._lock:
            return sum(len(d) for d in self._files.values())

    def __repr__(self) -> str:
        return f"VirtualBackend(files={self.file_count()}, ops={len(self.ops)})"
