"""Deterministic fault injection for storage backends.

:class:`FaultInjectingBackend` wraps any :class:`~repro.io.backend.FileBackend`
and perturbs its operations according to a :class:`FaultPlan` — a seedable,
fully deterministic schedule of failures.  The same plan against the same
workload produces the same faults every run, which is what lets the failure
matrix in the test suite assert exact recovery behaviour.

Supported fault kinds (see :class:`FaultSpec`):

``transient``
    The first ``heal_after`` matching operations on each path raise
    :class:`~repro.errors.TransientBackendError`, then the path heals.
    Models flaky mounts; exercised by :class:`~repro.io.retry.RetryPolicy`.
``permanent``
    Every matching operation raises :class:`~repro.errors.BackendError`.
``torn_write``
    A matching write silently stores only a prefix of the data (the torn
    length is drawn from the plan's RNG).  Models a crash after a partial
    buffer flush — the caller sees success, the bytes are short.
``bit_flip``
    A matching read returns the true data with one deterministic bit
    inverted.  Models silent media corruption; caught by format checksums.
``crash``
    After ``after_writes`` successful writes, the next write stores a torn
    prefix and raises :class:`InjectedCrashError`; every later write also
    raises.  Models a process dying mid-dataset.  With ``op="any"`` the
    rule counts deletes too and can fire on a delete (nothing is removed;
    the process died first) — this is how the generation tests walk the
    crash point through every mutating backend op of a commit, not just
    its writes.  Plain ``crash`` rules keep their writes-only semantics.

Every injected fault is recorded as an ``IoOp(kind="fault", ...)`` in
:attr:`FaultInjectingBackend.ops` and counted per kind in
:attr:`FaultInjectingBackend.fault_counts`, so tests and stats can assert
exactly what happened.  With an obs recorder attached
(:meth:`~repro.io.backend.FileBackend.attach_recorder`), each fault also
lands as an ``io.fault`` event and an ``io.faults`` counter keyed by kind,
so exported traces show exactly where the plan bit.
"""

from __future__ import annotations

import fnmatch
import random
import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import BackendError, TransientBackendError
from repro.io.backend import FileBackend, IoOp, ReadRequest, WrapperBackend
from repro.obs.names import EV_FAULT, IO_FAULTS

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjectingBackend",
    "InjectedCrashError",
]


class InjectedCrashError(BackendError):
    """The fault plan simulated a process crash during a write."""


@dataclass(frozen=True)
class FaultSpec:
    """One rule in a fault plan.

    Parameters
    ----------
    kind:
        ``transient`` | ``permanent`` | ``torn_write`` | ``bit_flip`` |
        ``crash``.
    op:
        Which operations the rule applies to: ``"read"`` (read_file and
        readv), ``"write"``, or ``"any"``.  ``torn_write`` and
        ``crash`` always apply to writes regardless of this field.
    path_glob:
        ``fnmatch`` pattern on the backend-relative path (e.g.
        ``"data/*.pbin"``).
    heal_after:
        ``transient`` only — how many failures each matching path suffers
        before healing.
    after_writes:
        ``crash`` only — number of writes that succeed before the crash.
    max_triggers:
        Cap on how many times this rule fires in total (``None`` =
        unlimited).  Useful for "corrupt exactly one read".
    """

    kind: str
    op: str = "read"
    path_glob: str = "*"
    heal_after: int = 1
    after_writes: int = 0
    max_triggers: int | None = None

    _KINDS = ("transient", "permanent", "torn_write", "bit_flip", "crash")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {self._KINDS}")
        if self.op not in ("read", "write", "any"):
            raise ValueError(f"op must be read/write/any, got {self.op!r}")
        if self.heal_after < 0 or self.after_writes < 0:
            raise ValueError("heal_after and after_writes must be >= 0")

    def matches(self, op: str, path: str) -> bool:
        if self.kind == "torn_write":
            applies_to = "write"
        elif self.kind == "crash":
            # Opt-in: crash rules stay writes-only unless explicitly
            # widened to every mutating op (op="any" counts deletes too).
            applies_to = "any" if self.op == "any" else "write"
        else:
            applies_to = self.op
        if applies_to != "any" and applies_to != op:
            return False
        return fnmatch.fnmatch(path, self.path_glob)


@dataclass
class FaultPlan:
    """A deterministic schedule of faults: a rule list plus a seeded RNG."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        self.rng = random.Random(self.seed)

    @classmethod
    def transient_reads(
        cls, heal_after: int = 1, path_glob: str = "*", seed: int = 0
    ) -> "FaultPlan":
        return cls(
            (FaultSpec("transient", op="read", path_glob=path_glob, heal_after=heal_after),),
            seed=seed,
        )

    @classmethod
    def transient_writes(
        cls, heal_after: int = 1, path_glob: str = "*", seed: int = 0
    ) -> "FaultPlan":
        return cls(
            (FaultSpec("transient", op="write", path_glob=path_glob, heal_after=heal_after),),
            seed=seed,
        )

    @classmethod
    def crash_after(cls, writes: int, seed: int = 0) -> "FaultPlan":
        return cls((FaultSpec("crash", after_writes=writes),), seed=seed)

    @classmethod
    def crash_after_ops(cls, ops: int, seed: int = 0) -> "FaultPlan":
        """Crash after ``ops`` mutating operations, counting writes AND
        deletes — the schedule the generation/compaction crash matrices
        sweep so every commit step (including marker invalidations and GC
        deletes) gets its turn as the crash point."""
        return cls((FaultSpec("crash", op="any", after_writes=ops),), seed=seed)


class FaultInjectingBackend(WrapperBackend):
    """Wraps a backend and injects the faults described by a plan."""

    def __init__(self, inner: FileBackend, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self.ops: list[IoOp] = []
        self.fault_counts: Counter[str] = Counter()
        self.writes_completed = 0
        self.deletes_completed = 0
        self._lock = threading.Lock()
        # transient bookkeeping: remaining failures per (spec index, path)
        self._transient_left: dict[tuple[int, str], int] = {}
        self._triggers: Counter[int] = Counter()
        self._crashed = False

    # -- plan evaluation ---------------------------------------------------

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_counts.values())

    def _record(self, kind: str, path: str, nbytes: int = 0) -> None:
        self.fault_counts[kind] += 1
        self.ops.append(IoOp("fault", path, nbytes=nbytes))
        if self.recorder is not None:
            self.recorder.add(IO_FAULTS, 1, key=(kind,))
            self.recorder.event(EV_FAULT, kind=kind, path=path, nbytes=nbytes)

    def _check_dead(self, path: str) -> None:
        """Once a crash rule fired, the simulated process is gone — every
        further operation (including cleanup) fails."""
        if self._crashed:
            raise InjectedCrashError(
                f"backend crashed earlier; operation on {path!r} refused"
            )

    def _crash_ops(self, spec: FaultSpec) -> int:
        """The op count a crash rule compares against ``after_writes``:
        writes-only classically, writes + deletes for ``op="any"`` rules."""
        if spec.op == "any":
            return self.writes_completed + self.deletes_completed
        return self.writes_completed

    def _fire(self, idx: int, spec: FaultSpec) -> bool:
        """Whether rule ``idx`` may still trigger (respects max_triggers)."""
        if spec.max_triggers is not None and self._triggers[idx] >= spec.max_triggers:
            return False
        self._triggers[idx] += 1
        return True

    def _check_read(self, path: str) -> list[FaultSpec]:
        """Raise for transient/permanent read faults; return bit-flip specs."""
        flips: list[FaultSpec] = []
        for idx, spec in enumerate(self.plan.specs):
            if not spec.matches("read", path):
                continue
            if spec.kind == "permanent" and self._fire(idx, spec):
                self._record("permanent", path)
                raise BackendError(f"injected permanent fault reading {path!r}")
            if spec.kind == "transient":
                key = (idx, path)
                left = self._transient_left.setdefault(key, spec.heal_after)
                if left > 0 and self._fire(idx, spec):
                    self._transient_left[key] = left - 1
                    self._record("transient", path)
                    raise TransientBackendError(
                        f"injected transient fault reading {path!r} "
                        f"({left - 1} failures left before heal)"
                    )
            if spec.kind == "bit_flip":
                flips.append(spec)
        return flips

    def _apply_flips(self, path: str, data: bytes, specs: list[FaultSpec]) -> bytes:
        if not specs or not data:
            return data
        buf = bytearray(data)
        for spec in specs:
            idx = self.plan.specs.index(spec)
            if not self._fire(idx, spec):
                continue
            pos = self.plan.rng.randrange(len(buf))
            bit = self.plan.rng.randrange(8)
            buf[pos] ^= 1 << bit
            self._record("bit_flip", path, nbytes=1)
        return bytes(buf)

    def _check_write(self, path: str, data: bytes) -> bytes | None:
        """Raise/perturb for write faults; returns the data actually stored.

        Returns ``None`` when a crash rule fires *and* the torn prefix has
        already been stored (the caller must then raise).
        """
        for idx, spec in enumerate(self.plan.specs):
            if not spec.matches("write", path):
                continue
            if spec.kind == "crash":
                if self._crashed or self._crash_ops(spec) >= spec.after_writes:
                    self._crashed = True
                    self._record("crash", path)
                    if len(data) > 0:
                        cut = self.plan.rng.randrange(len(data))
                        if cut > 0:
                            self.base.write_file(path, data[:cut])
                    raise InjectedCrashError(
                        f"injected crash on write #{self.writes_completed + 1} "
                        f"({path!r})"
                    )
            elif spec.kind == "permanent" and self._fire(idx, spec):
                self._record("permanent", path)
                raise BackendError(f"injected permanent fault writing {path!r}")
            elif spec.kind == "transient":
                key = (idx, path)
                left = self._transient_left.setdefault(key, spec.heal_after)
                if left > 0 and self._fire(idx, spec):
                    self._transient_left[key] = left - 1
                    self._record("transient", path)
                    raise TransientBackendError(
                        f"injected transient fault writing {path!r} "
                        f"({left - 1} failures left before heal)"
                    )
            elif spec.kind == "torn_write" and self._fire(idx, spec):
                cut = self.plan.rng.randrange(len(data)) if data else 0
                self._record("torn_write", path, nbytes=len(data) - cut)
                return data[:cut]
        return data

    # -- FileBackend interface ---------------------------------------------

    def _forward(self, op: str, path: str, *args, **kwargs):
        # The ops this class does not override (exists/size/listdir) still
        # refuse to run in a process that already crashed.
        with self._lock:
            self._check_dead(path)
        return super()._forward(op, path, *args, **kwargs)

    def write_file(self, path: str, data: bytes, actor: int = -1) -> None:
        path = self._normalize(path)
        with self._lock:
            self._check_dead(path)
            stored = self._check_write(path, data)
        self.base.write_file(path, stored, actor=actor)
        with self._lock:
            self.writes_completed += 1

    def read_file(self, path: str, actor: int = -1) -> bytes:
        path = self._normalize(path)
        with self._lock:
            self._check_dead(path)
            flips = self._check_read(path)
        data = self.base.read_file(path, actor=actor)
        with self._lock:
            return self._apply_flips(path, data, flips)

    def readv(self, path: str, request: ReadRequest, actor: int = -1) -> int:
        # One fault check per readv call, mirroring its one-open semantics
        # (a transient fault fails the whole scatter-gather read, as a real
        # failed open would).
        path = self._normalize(path)
        with self._lock:
            self._check_dead(path)
            flips = self._check_read(path)
        total = self.base.readv(path, request, actor=actor)
        if flips:
            segs = self._segments(request)
            # Flip inside the *data* ranges: range 0 of every
            # scatter-gather read is the fixed-size header, and a header
            # flip fails fast at parse time instead of exercising the
            # per-segment checksum isolation the format promises.  With
            # encoded columnar extents this lands the flip in compressed
            # segment bytes.
            targets = segs[1:] if len(segs) > 1 else segs
            blob = bytearray()
            for _off, out in targets:
                blob += out
            with self._lock:
                blob = bytearray(self._apply_flips(path, bytes(blob), flips))
            pos = 0
            for _off, out in targets:
                out[:] = blob[pos : pos + len(out)]
                pos += len(out)
        return total

    def delete(self, path: str, missing_ok: bool = False) -> None:
        with self._lock:
            self._check_dead(path)
            for spec in self.plan.specs:
                if spec.kind != "crash" or not spec.matches("delete", path):
                    continue
                if self._crashed or self._crash_ops(spec) >= spec.after_writes:
                    # The process died before issuing the delete: the file
                    # stays exactly as it was.
                    self._crashed = True
                    self._record("crash", path)
                    raise InjectedCrashError(
                        f"injected crash on delete ({path!r})"
                    )
        self.base.delete(path, missing_ok=missing_ok)
        with self._lock:
            self.deletes_completed += 1

    def __repr__(self) -> str:
        return (
            f"FaultInjectingBackend({self.base!r}, "
            f"faults={dict(self.fault_counts)})"
        )
