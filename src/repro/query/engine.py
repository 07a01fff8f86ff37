"""The extracted query engine: first-class plans, shared execution.

Planning and execution used to live inside
:class:`~repro.core.reader.SpatialReader`; this module lifts them into a
reusable engine so every read-side consumer — the reader facade, series
reads, the CLI, and the multi-tenant :mod:`repro.serve` layer — consumes
the *same* plan objects instead of re-deriving state:

* :class:`QueryPlan` is a plain, first-class value: which files, how many
  particles from each, the coalesced per-file chunk runs, the attribute
  projection, the predicate pushdown, and the **generation pin** the plan
  was built against.  Plans are inert data — tests, the performance
  models, and the cross-query batch planner all consume them directly.
* :class:`QueryEngine` is stateless per query: planning reads the
  dataset's memoized tables (LOD prefix apportionment, box-id index,
  chunk indexes), and :meth:`QueryEngine.run` executes a plan against an
  explicit recorder, returning a :class:`QueryResult` (batch + report +
  plan).  Nothing is stored on the engine between calls, so one engine
  can serve many concurrent queries over one shared :class:`Dataset`.

Cross-query batching hooks in through :class:`StagedReads`: a batch
planner (see :mod:`repro.serve.batch`) merges the chunk runs of many
in-flight plans per file, performs one coalesced ``readv`` pass, and
parks the decoded particles here; execution then *answers* each staged
entry on the calling thread — one masked span of the stage per entry —
instead of touching the backend.  The stage is filled by the same decode
path a direct read would run, and the span is masked by the entry's own
runs and the same predicate the direct path applies, so batched results
are bit-identical to serial execution by construction.

Generation pinning: plans record the generation the dataset resolved at
plan time.  Executing a plan against a facade that has since re-resolved
to a different generation raises — a plan is only meaningful against the
snapshot it was planned on (MVCC discipline, same as the facade's own
pinning).
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from repro.domain.box import Box
from repro.errors import (
    BackendError,
    BreakerOpenError,
    DataChecksumError,
    DeadlineExceededError,
    FormatError,
    MetadataChecksumError,
    QueryError,
    TransientBackendError,
)
from repro.format.chunks import Runs
from repro.format.datafile import read_particle_runs_into
from repro.format.metadata import MetadataRecord
from repro.io.backend import FileBackend
from repro.io.resilience import Deadline, current_deadline, deadline_scope
from repro.io.retry import RetryPolicy
from repro.obs.names import (
    DECODE_VECTORIZED_RUNS,
    EV_CHUNK_SKIPPED,
    EV_PARTITION_READ,
    EV_PARTITION_SKIPPED,
    EV_PREFIX_VERIFIED,
    EV_RETRY,
    PHASE_FILE_IO,
)
from repro.obs.recorder import Event, Recorder
from repro.particles.batch import ParticleBatch

__all__ = [
    "QueryPlan",
    "ReadPlan",
    "SkippedPartition",
    "ReadReport",
    "QueryResult",
    "StagedReads",
    "QueryEngine",
]

# The traced pass (benchmarks/e2e/trace.py::WRAPS) still names the readers the
# one reader replaced; they alias it until WRAPS goes (ROADMAP item 6(a)).
read_data_file_into = read_data_prefix_into = read_columnar_runs_into = read_particle_runs_into


@dataclass
class QueryPlan:
    """A fully resolved read: which files, how many particles from each."""

    #: (metadata record, particles to read from the file's head).
    entries: list[tuple[MetadataRecord, int]] = field(default_factory=list)
    #: the query box (None for full-dataset reads).
    box: Box | None = None
    #: LOD ceiling used when planning (None = full resolution).
    max_level: int | None = None
    #: Sub-file pruning: entry position -> coalesced ``(start, count)``
    #: particle runs selected by the file's chunk index.  Only recorded when
    #: pruning actually shrinks the read; applied by :meth:`QueryEngine.run`
    #: for exact box queries (a pruned read is a superset of the box but a
    #: subset of the file, so it is only equivalent after the exact filter).
    chunk_runs: dict[int, Runs] = field(default_factory=dict)
    #: Attribute projection: extra field names to materialise alongside
    #: ``position`` (None = all fields).  Columnar (v4) files fetch only
    #: the projected columns' segments; row files read whole records and
    #: copy the projected fields out.
    attrs: tuple[str, ...] | None = None
    #: Predicate pushdown: scalar attribute -> closed ``(lo, hi)`` value
    #: range.  Pruned against per-file and per-chunk attr min/max at plan
    #: time; re-applied exactly (post-filter) at execution, so results
    #: equal post-hoc filtering by construction.
    where: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: The dataset generation this plan was resolved against (None for
    #: hand-built plans).  Execution refuses a plan whose pin disagrees
    #: with the facade's current resolution — a plan only describes the
    #: snapshot it was planned on.
    generation: int | None = None

    def demand(self, exact: bool) -> list[tuple[MetadataRecord, int, Runs | None]]:
        """What executing this plan reads, per non-empty entry.

        Each item is ``(record, head count, chunk runs or None)``: the
        entry's runs replace its head count only for exact box reads (a
        pruned read is a superset of the box but a subset of the file), and
        then the entry reads ``runs.total`` particles, else ``count``.
        This is the one definition of the plan's reads — execution,
        :attr:`pruned_particles` and cross-query staging all start here.
        """
        use_runs = exact and self.box is not None
        return [
            (rec, count, self.chunk_runs.get(i) if use_runs else None)
            for i, (rec, count) in enumerate(self.entries)
            if count > 0
        ]

    @property
    def num_files(self) -> int:
        return sum(1 for _rec, n in self.entries if n > 0)

    @property
    def total_particles(self) -> int:
        return sum(n for _rec, n in self.entries)

    @property
    def pruned_particles(self) -> int:
        """Particles an exact chunk-pruned execution actually reads."""
        return sum(
            count if runs is None else runs.total
            for _rec, count, runs in self.demand(exact=True)
        )

    def bytes_to_read(self, particle_bytes: int) -> int:
        return self.pruned_particles * particle_bytes

    def result_dtype(self, full_dtype: np.dtype) -> np.dtype:
        """The structured dtype execution materialises for this plan.

        ``position`` is always present (the exact box filter needs it);
        ``where`` attributes are implicitly projected (the exact value
        filter needs them); field order follows the file dtype.
        """
        if self.attrs is None:
            return full_dtype
        return project_dtype(full_dtype, {"position", *self.attrs, *self.where})


def project_dtype(full_dtype: np.dtype, keep) -> np.dtype:
    """``full_dtype`` cut down to the fields named in ``keep``, in file order."""
    if set(keep) >= set(full_dtype.names or ()):
        return full_dtype
    fields: list[tuple] = []
    for name in full_dtype.names or ():
        if name in keep:
            sub = full_dtype.fields[name][0]  # type: ignore[index]
            fields.append((name, sub.base, sub.shape) if sub.shape else (name, sub.base))
    return np.dtype(fields)


#: Historic name — the plan predates its extraction into the engine.
ReadPlan = QueryPlan


@dataclass(frozen=True)
class SkippedPartition:
    """One partition a degraded read could not deliver."""

    path: str
    box_id: int
    reason: str      # "missing" | "transient-exhausted" | "checksum" | "corrupt"
    error: str       # the stringified underlying exception


@dataclass
class ReadReport:
    """What one plan execution actually did — the degraded-read ledger.

    Built from the execution recorder's events (:meth:`from_events`), so
    the report and an exported trace can never disagree.
    """

    partitions_read: int = 0
    particles_read: int = 0
    skipped: list[SkippedPartition] = field(default_factory=list)
    retries: int = 0
    #: prefix reads verified against the manifest's per-LOD checksums.
    prefixes_verified: int = 0
    #: columnar chunks dropped at segment granularity by a degraded read
    #: (the partition itself still delivered its surviving chunks).
    chunks_skipped: int = 0

    @classmethod
    def from_events(cls, events: list[Event]) -> "ReadReport":
        """Derive the ledger from one execution window of recorder events."""
        report = cls()
        for ev in events:
            if ev.name == EV_PARTITION_READ:
                report.partitions_read += 1
                report.particles_read += int(ev.args["particles"])  # type: ignore[call-overload]
            elif ev.name == EV_PARTITION_SKIPPED:
                report.skipped.append(
                    SkippedPartition(
                        path=str(ev.args["path"]),
                        box_id=int(ev.args["box_id"]),  # type: ignore[call-overload]
                        reason=str(ev.args["reason"]),
                        error=str(ev.args["error"]),
                    )
                )
            elif ev.name == EV_PREFIX_VERIFIED:
                report.prefixes_verified += 1
            elif ev.name == EV_CHUNK_SKIPPED:
                report.chunks_skipped += 1
            elif ev.name == EV_RETRY:
                report.retries += 1
        return report

    @property
    def complete(self) -> bool:
        return not self.skipped and not self.chunks_skipped

    @property
    def partitions_skipped(self) -> int:
        return len(self.skipped)

    def skipped_boxes(self) -> list[int]:
        return [s.box_id for s in self.skipped]

    def merge(self, other: "ReadReport") -> None:
        self.partitions_read += other.partitions_read
        self.particles_read += other.particles_read
        self.skipped.extend(other.skipped)
        self.retries += other.retries
        self.prefixes_verified += other.prefixes_verified
        self.chunks_skipped += other.chunks_skipped

    def equivalent(self, other: "ReadReport") -> bool:
        """Delivery-equivalence: same partitions, particles, and losses.

        Retry counts are excluded — a batched execution may absorb a
        transient fault once for many queries where serial execution
        would retry per query, without changing what was delivered.
        """
        return (
            self.partitions_read == other.partitions_read
            and self.particles_read == other.particles_read
            and self.prefixes_verified == other.prefixes_verified
            and self.chunks_skipped == other.chunks_skipped
            and sorted((s.path, s.box_id, s.reason) for s in self.skipped)
            == sorted((s.path, s.box_id, s.reason) for s in other.skipped)
        )


@dataclass
class QueryResult:
    """One executed plan: the particles plus the delivery ledger."""

    batch: ParticleBatch
    report: ReadReport
    plan: QueryPlan

    def __len__(self) -> int:
        return len(self.batch)


def _skip_reason(exc: Exception) -> str:
    if isinstance(exc, DataChecksumError):
        return "checksum"
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(exc, BreakerOpenError):
        return "unavailable"
    if isinstance(exc, TransientBackendError):
        return "transient-exhausted"
    if isinstance(exc, BackendError):
        return "missing"
    return "corrupt"


def _keep_mask(plan: QueryPlan, exact: bool, rows) -> np.ndarray | None:
    """The plan's predicate over ``rows``, or ``None`` when it keeps all.

    The closed box (exact reads only) and every ``where`` range, fused
    into one mask.  The predicate is re-applied exactly: chunk and file
    pruning only discard provably-disjoint data, so filtering here makes
    the pushdown result equal post-hoc filtering by construction.
    ``rows`` has a length and yields a column per field name: a result
    array, or a staged span (:class:`_Span`).
    """
    box = plan.box if exact else None
    if not len(rows) or (box is None and not plan.where):
        return None
    mask = (
        box.contains_points(rows["position"], closed=True)
        if box is not None
        else np.ones(len(rows), dtype=bool)
    )
    for name, (lo, hi) in plan.where.items():
        vals = rows[name].astype(np.float64, copy=False)
        mask &= vals >= lo
        mask &= vals <= hi
    return mask


def _filtered(plan: QueryPlan, exact: bool, rows: np.ndarray) -> np.ndarray:
    """``rows`` compressed to the particles the plan's predicate keeps."""
    mask = _keep_mask(plan, exact, rows)
    return rows if mask is None else rows.compress(mask)


@dataclass
class _StagedFile:
    """One file's pre-read, decoded particles (merged across queries)."""

    #: merged ascending, non-overlapping particle runs.
    runs: Runs
    #: position in ``buf`` of each run's first particle.
    offsets: np.ndarray
    #: decoded particles of every merged run, in run order.  The dtype is
    #: the union of every demanding query's result dtype (full dtype for
    #: row files), so any one query's fields are a subset.
    buf: np.ndarray
    #: ``buf["position"]`` as one contiguous column per axis, shape
    #: ``(3, len(buf))``: a span's box test streams each axis in place.
    position: np.ndarray


class _Span:
    """Rows ``lo:hi`` of one staged file, one column per field name."""

    __slots__ = ("file", "lo", "hi")

    def __init__(self, file: _StagedFile, lo: int, hi: int) -> None:
        self.file, self.lo, self.hi = file, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "position":
            return self.file.position[:, self.lo : self.hi].T
        return self.file.buf[name][self.lo : self.hi]


class StagedReads:
    """Decoded per-file buffers a batch planner pre-read for many queries.

    :meth:`QueryEngine.run` asks :meth:`select` for each plan entry before
    any executor work.  A hit answers the entry from the stage in one
    step — the contiguous staged span covering its runs, masked by those
    runs and the plan's predicate, compressed once into the result dtype
    — and costs zero backend I/O.  A miss — file not staged, runs not
    covered, fields not decoded, or an LOD-prefix entry (never staged;
    prefix reads carry their own verification) — returns ``None`` and the
    entry reads normally, so a partially applicable stage degrades to
    exactly serial behaviour.

    Thread-safe: one stage is shared by every query of a batch.
    """

    def __init__(self) -> None:
        self._files: dict[str, _StagedFile] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._files)

    @property
    def staged_files(self) -> int:
        return len(self._files)

    def stage(self, path: str, runs, buf: np.ndarray) -> None:
        """Park ``buf`` (the decoded particles of ``runs``, in order).

        ``buf`` must carry a ``position`` field; its per-axis columns are
        built here, once per file, for every query the stage answers.
        """
        runs = Runs.of(runs)
        if runs.total != len(buf):
            raise ValueError(
                f"{path}: staged buffer holds {len(buf)} particles, "
                f"runs cover {runs.total}"
            )
        if not len(runs):
            return
        buf = np.ascontiguousarray(buf)
        staged = _StagedFile(
            runs, runs.offsets, buf, np.ascontiguousarray(buf["position"].T)
        )
        with self._lock:
            self._files[path] = staged

    def select(
        self,
        rec: MetadataRecord,
        count: int,
        runs,
        dtype: np.dtype,
        keep: Callable[[_Span], np.ndarray | None],
    ) -> np.ndarray | None:
        """Answer one plan entry from the stage, or ``None`` on a miss.

        The answer is the entry's particles — ``runs``, or the first
        ``count`` of the file — that ``keep`` (the plan's predicate, see
        :func:`_keep_mask`) accepts, in file order, as a new array of
        ``dtype``.  Masking by the entry's own runs keeps the answer equal
        to a direct read's even where a chunk index's bounds are loose.
        """
        staged = self._files.get(rec.file_path)
        names = dtype.names or ()
        if (
            staged is None
            # LOD prefix entry: never staged (prefix checksum verification
            # belongs to the direct path).
            or (runs is None and count < rec.particle_count)
            or not set(names) <= set(staged.buf.dtype.names or ())
        ):
            self._miss()
            return None
        want = Runs.of(runs if runs is not None else ((0, count),))
        # Every wanted run must lie inside ONE merged run: the last one
        # starting at or before it (merged runs are disjoint and ascending).
        # Ascending, disjoint wanted runs then map to ascending, disjoint
        # stage rows, so one span from the first to the last covers them.
        at = np.searchsorted(staged.runs.starts, want.starts, side="right") - 1
        inside = want.starts - staged.runs.starts[at]
        src = staged.offsets[at] + inside
        ends = src + want.counts
        gaps = src[1:] - ends[:-1]
        if (
            (at < 0) | (inside + want.counts > staged.runs.counts[at])
        ).any() or (gaps < 0).any():
            self._miss()
            return None
        lo, hi = int(src[0]), int(ends[-1])
        mask = keep(_Span(staged, lo, hi))
        if hi - lo != want.total:
            # Rows of other queries' runs sit between this entry's runs.
            pattern = np.zeros(2 * len(want) - 1, dtype=bool)
            pattern[::2] = True
            lengths = np.empty(len(pattern), dtype=np.int64)
            lengths[::2], lengths[1::2] = want.counts, gaps
            own = np.repeat(pattern, lengths)
            mask = own if mask is None else mask & own
        rows = staged.buf[lo:hi]
        if dtype != rows.dtype:
            n = len(rows) if mask is None else int(np.count_nonzero(mask))
            answer = np.empty(n, dtype=dtype)
            for name in names:
                answer[name] = rows[name] if mask is None else rows[name][mask]
        elif mask is None:
            answer = rows.copy()
        else:
            # Whole records as opaque bytes: a boolean index over a void
            # view copies each kept record with one memcpy.
            answer = rows.view(np.dtype((np.void, dtype.itemsize)))[mask].view(dtype)
        with self._lock:
            self.hits += 1
        return answer

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def __repr__(self) -> str:
        return (
            f"StagedReads(files={len(self._files)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def verify_prefix(
    path: str, data, recorder: Recorder, checksum_entry: dict | None
) -> None:
    """Check a prefix read against the manifest's per-LOD checksums.

    Ranged reads never see the v2 file footer, so this is the only
    integrity check they get.  Verification happens when the read count
    lands exactly on a recorded LOD boundary (checksums are prefix CRCs
    — they cannot verify arbitrary lengths).  Boundaries are recorded in
    ascending order, so the scan stops at the first one past the count.
    ``data`` is the decoded particle array (or a :class:`ParticleBatch`);
    the CRC streams over its contiguous byte view, so no copy of the
    payload is made.
    """
    if not checksum_entry:
        return
    arr = data.data if isinstance(data, ParticleBatch) else data
    for rec_count, rec_crc in checksum_entry.get("prefixes", ()):
        if rec_count > len(arr):
            return
        if rec_count == len(arr):
            actual = zlib.crc32(np.ascontiguousarray(arr).view(np.uint8))
            if actual != int(rec_crc):
                raise DataChecksumError(
                    f"{path}: prefix of {len(arr)} particles has "
                    f"CRC32 {actual:#010x}, manifest records "
                    f"{int(rec_crc):#010x}"
                )
            recorder.event(EV_PREFIX_VERIFIED, path=path, count=len(arr))
            return


def read_entry_into(
    backend,
    dtype: np.dtype,
    rec: MetadataRecord,
    count: int,
    runs: Runs | None,
    dest: np.ndarray,
    recorder: Recorder,
    strict: bool,
    retry,
    actor: int,
    index,
    checksum_entry: dict | None,
) -> int:
    """Read one plan entry directly into its slice of the result.

    The module-level core of :meth:`QueryEngine.run`'s per-entry task:
    everything it needs arrives as arguments (the entry's memoized chunk
    ``index``, the manifest ``checksum_entry`` for prefix verification), so
    the same function serves the serial path, executor threads and worker
    processes.  ``dest`` is sized to the entry's ``runs`` or, without runs,
    to its head of ``count`` particles (the whole file or an LOD prefix),
    and may carry a projected dtype.  The entry is one
    :func:`~repro.format.datafile.read_particle_runs_into` call under one
    retry call, so a transient fault costs exactly one retry.  A degraded
    columnar read delivers fewer particles than ``dest`` holds (survivors
    packed at its head) and logs each lost chunk as ``EV_CHUNK_SKIPPED``.
    Retry, verification and ``decode.vectorized_runs`` records land on
    ``recorder`` (the entry's child recorder on an executor).  Returns the
    particles delivered.
    """
    skipped: list[tuple[int, str, str]] = []
    decode_stats: dict = {}
    got = retry.call(
        read_particle_runs_into,
        backend,
        rec.file_path,
        dtype,
        index,
        ((0, count),) if runs is None else runs,
        dest,
        actor=actor,
        strict=strict,
        skipped=skipped,
        decode_stats=decode_stats,
        recorder=recorder,
    )
    if decode_stats.get("vectorized_runs"):
        recorder.add(
            DECODE_VECTORIZED_RUNS, decode_stats["vectorized_runs"], key=(rec.file_path,)
        )
    for ci, column, error in skipped:
        recorder.event(
            EV_CHUNK_SKIPPED,
            path=rec.file_path,
            box_id=rec.box_id,
            chunk=ci,
            column=column,
            error=error,
        )
    if runs is None and count < rec.particle_count and got == count and dest.dtype == dtype:
        verify_prefix(rec.file_path, dest, recorder, checksum_entry)
    return got


def _process_entry(payload: dict, recorder: Recorder) -> int:
    """Worker-process body of one plan entry (see ``ProcessTask``).

    The payload carries a pickled backend clone, the entry facts, and the
    name plus byte offset of the parent's shared-memory *result block*:
    the decoded particles land directly in the entry's slice of the final
    result (zero extra copies child-side, zero copies parent-side), and
    only the delivered count rides back over the result pipe.  Per-file
    backend counters are routed into the task recorder when the parent had
    a recorder attached, so they merge into the execution stream like
    every other child record.
    """
    from multiprocessing import shared_memory

    backend = payload["backend"]
    if payload["note_io"]:
        backend.attach_recorder(recorder)
    shm = shared_memory.SharedMemory(name=payload["shm_name"])
    dest = None
    try:
        dest = np.ndarray(
            payload["n"],
            dtype=payload["result_dtype"],
            buffer=shm.buf,
            offset=payload["byte_offset"],
        )
        return read_entry_into(
            backend,
            payload["dtype"],
            payload["rec"],
            payload["count"],
            payload["runs"],
            dest,
            recorder,
            payload["strict"],
            payload["retry"],
            payload["actor"],
            payload["index"],
            payload["checksum_entry"],
        )
    finally:
        dest = None  # release the exported buffer before closing the block
        shm.close()


class _ReadContext(NamedTuple):
    """What every entry task of one :meth:`QueryEngine.run` shares."""

    backend: FileBackend
    dtype: np.dtype
    strict: bool
    retry: RetryPolicy
    actor: int
    deadline: Deadline | None
    chunk_index: Callable[[MetadataRecord], object]
    checksums: dict[str, dict]


class _EntryTask(NamedTuple):
    """One plan entry of :meth:`QueryEngine.run` as an executor task.

    Called with the task's child recorder, it reads the entry into
    ``dest`` through :func:`read_entry_into`.  A deadline is re-entered
    inside the task, because executor threads do not inherit the caller's
    context, and an entry that starts after expiry is shed before any I/O.
    """

    ctx: _ReadContext
    rec: MetadataRecord
    #: particles wanted from the head of the file (``runs`` overrides it)
    head: int
    runs: Runs | None
    dest: np.ndarray

    def __call__(self, recorder: Recorder) -> int:
        deadline = self.ctx.deadline
        if deadline is None:
            return self._read(recorder)
        with deadline_scope(deadline):
            deadline.check(f"read {self.rec.file_path!r}")
            return self._read(recorder)

    def _read(self, recorder: Recorder) -> int:
        backend, dtype, strict, retry, actor, _, chunk_index, checksums = self.ctx
        rec = self.rec
        return read_entry_into(
            backend, dtype, rec, self.head, self.runs, self.dest, recorder,
            strict, retry, actor, chunk_index(rec), checksums.get(rec.file_path),
        )


class QueryEngine:
    """Plans and executes reads over one :class:`~repro.dataset.Dataset`.

    The engine holds no per-query state: planning consults the facade's
    memoized tables, and :meth:`run` takes the recorder to record into
    (defaulting to the dataset's), so one engine instance — shared via
    :meth:`repro.dataset.Dataset.engine` — safely serves concurrent
    queries from many clients.
    """

    def __init__(self, dataset) -> None:
        from repro.dataset import Dataset, as_dataset

        self.dataset: Dataset = as_dataset(dataset)

    # -- policy bundle (proxied so invalidation/re-resolution is honoured) ---

    @property
    def backend(self):
        return self.dataset.backend

    @property
    def strict(self) -> bool:
        return self.dataset.strict

    @property
    def retry(self):
        return self.dataset.retry

    @property
    def executor(self):
        return self.dataset.executor

    @property
    def recorder(self) -> Recorder:
        return self.dataset.recorder

    @property
    def actor(self) -> int:
        return self.dataset.actor

    @property
    def manifest(self):
        return self.dataset.manifest

    @property
    def metadata(self):
        return self.dataset.metadata

    @property
    def dtype(self) -> np.dtype:
        return self.manifest.dtype

    # -- planning ------------------------------------------------------------

    def _prefix_for(
        self, records: list[MetadataRecord], max_level: int | None, nreaders: int
    ) -> list[int]:
        """Per-file particle counts honouring an optional LOD ceiling.

        LOD prefix lengths are computed against the *whole dataset's* file
        counts (levels are a global notion), then restricted to the files
        the query actually touches.
        """
        if max_level is None:
            return [rec.particle_count for rec in records]
        if max_level < 0:
            raise QueryError(f"max_level must be >= 0, got {max_level}")
        # Both tables are pure functions of the loaded metadata, memoized on
        # the facade so repeated plans share one computation.
        prefixes = self.dataset.lod_prefix_table(max_level, nreaders)
        # Index by box_id (unique per table — validated on load), so plans
        # built from copied or sliced record lists still resolve; an
        # identity (id()) index silently KeyErrors on equal-but-distinct
        # record objects.
        index = self.dataset.box_id_index()
        out = []
        for rec in records:
            i = index.get(rec.box_id)
            if i is None:
                raise QueryError(
                    f"record box_id {rec.box_id} is not in this dataset's "
                    "spatial metadata table"
                )
            out.append(prefixes[i])
        return out

    def _normalize_projection(
        self,
        attrs: tuple[str, ...] | list[str] | None,
        where: dict[str, tuple[float, float]] | None,
    ) -> tuple[tuple[str, ...] | None, dict[str, tuple[float, float]]]:
        """Validate and canonicalise ``attrs`` / ``where`` query arguments.

        ``attrs`` come back deduplicated in file-dtype field order;
        ``where`` bounds come back as closed float intervals.  Both are
        checked against the dataset dtype up front so a typo'd attribute
        fails at plan time, not deep inside execution.
        """
        names = self.dtype.names or ()
        attrs_norm: tuple[str, ...] | None = None
        if attrs is not None:
            requested = set(attrs)
            unknown = requested - set(names)
            if unknown:
                raise QueryError(
                    f"unknown projection attribute(s) {sorted(unknown)!r}; "
                    f"dataset fields are {list(names)!r}"
                )
            attrs_norm = tuple(n for n in names if n != "position" and n in requested)
        where_norm: dict[str, tuple[float, float]] = {}
        for name, bounds in (where or {}).items():
            if name not in names:
                raise QueryError(
                    f"unknown where attribute {name!r}; "
                    f"dataset fields are {list(names)!r}"
                )
            sub = self.dtype.fields[name][0]  # type: ignore[index]
            if sub.shape:
                raise QueryError(
                    f"where attribute {name!r} is not scalar (shape {sub.shape})"
                )
            lo, hi = float(bounds[0]), float(bounds[1])
            if not lo <= hi:
                raise QueryError(
                    f"where range for {name!r} is empty: lo {lo} > hi {hi}"
                )
            where_norm[name] = (lo, hi)
        return attrs_norm, where_norm

    def plan_box(
        self,
        box: Box,
        max_level: int | None = None,
        nreaders: int = 1,
        attrs: tuple[str, ...] | list[str] | None = None,
        where: dict[str, tuple[float, float]] | None = None,
    ) -> QueryPlan:
        """Plan a spatial query: metadata pruning + optional LOD prefixes.

        Files carrying a chunk index are pruned further: only the coalesced
        runs of chunks whose tight bounds intersect ``box`` are planned
        (recorded in :attr:`QueryPlan.chunk_runs` when that is fewer
        particles than the whole file).  LOD-prefix entries are exempt — a
        prefix read must be the contiguous head of the file.

        ``attrs`` projects the result to ``position`` plus the named fields
        (columnar files then skip the other columns' bytes entirely).
        ``where`` maps scalar attribute names to closed ``(lo, hi)`` value
        ranges; files and chunks whose recorded min/max for an indexed
        attribute miss the range are pruned before any I/O, and the exact
        value filter is re-applied to whatever is read, so the result
        equals post-hoc filtering regardless of indexing.
        """
        attrs_norm, where_norm = self._normalize_projection(attrs, where)
        records = self.metadata.files_intersecting(box)
        if where_norm:
            records = [
                rec
                for rec in records
                if all(
                    rec.attr_ranges.get(name) is None
                    or (
                        rec.attr_ranges[name][0] <= hi
                        and lo <= rec.attr_ranges[name][1]
                    )
                    for name, (lo, hi) in where_norm.items()
                )
            ]
        counts = self._prefix_for(records, max_level, nreaders)
        plan = QueryPlan(
            list(zip(records, counts)),
            box=box,
            max_level=max_level,
            attrs=attrs_norm,
            where=where_norm,
            generation=self.dataset.generation,
        )
        for i, (rec, count) in enumerate(plan.entries):
            if count == 0 or count != rec.particle_count:
                continue
            index = self.dataset.chunk_index(rec)
            if index is None:
                continue
            runs = index.select_runs(box, where=where_norm)
            if runs.total < count:
                plan.chunk_runs[i] = runs
        return plan

    def plan_full(
        self, max_level: int | None = None, nreaders: int = 1
    ) -> QueryPlan:
        records = list(self.metadata.records)
        counts = self._prefix_for(records, max_level, nreaders)
        return QueryPlan(
            list(zip(records, counts)),
            box=None,
            max_level=max_level,
            generation=self.dataset.generation,
        )

    def assign_files(self, nreaders: int, reader_rank: int) -> list[MetadataRecord]:
        """Contiguous file assignment for an ``nreaders``-way parallel read.

        File i goes to reader ``i * nreaders // num_files``-ish; we use the
        balanced contiguous split so each reader touches a spatially
        coherent run of files (metadata records are written in partition
        order, which is a spatial order).
        """
        if not 0 <= reader_rank < nreaders:
            raise QueryError(f"reader rank {reader_rank} out of range ({nreaders})")
        n = len(self.metadata)
        lo = reader_rank * n // nreaders
        hi = (reader_rank + 1) * n // nreaders
        return self.metadata.records[lo:hi]

    def plan_assigned(
        self, nreaders: int, reader_rank: int, max_level: int | None = None
    ) -> QueryPlan:
        """One reader's share of a full parallel read (Fig. 7 style)."""
        records = self.assign_files(nreaders, reader_rank)
        counts = self._prefix_for(records, max_level, nreaders)
        return QueryPlan(
            list(zip(records, counts)),
            max_level=max_level,
            generation=self.dataset.generation,
        )

    # -- execution -----------------------------------------------------------

    def _process_clone(self, deadline):
        """The backend clone process-shipping would use, or ``None``.

        Shipping is declined — and the process executor degrades to its
        internal thread pool — when the work cannot cross a process
        boundary: an ambient deadline is in-memory parent state, and the
        backend must volunteer a picklable read-equivalent via
        :meth:`~repro.io.backend.FileBackend.process_clone`.
        """
        if getattr(self.executor, "mode", "serial") != "process":
            return None
        if deadline is not None:
            return None
        return self.backend.process_clone()

    def _process_tasks(
        self,
        tasks: list[_EntryTask],
        offsets: list[int],
        clone,
        shm_name: str,
    ) -> list:
        """Wrap plan-entry tasks as process descriptors.

        Only a :class:`~repro.io.executor.ProcessExecutor` consumes the
        descriptors; every other executor just calls the task's ``local``
        form, so wrapping is behaviour-neutral.  ``shm_name`` names the
        shared-memory block backing the *whole result array* (see
        :meth:`run`): each descriptor carries its entry's byte offset into
        it, the worker decodes straight into that slice, and nothing is
        copied parent-side.
        """
        from repro.io.executor import ProcessTask

        note_io = self.backend.recorder is not None
        wrapped: list = []
        for task, off in zip(tasks, offsets):
            rec, dest = task.rec, task.dest
            payload = {
                "backend": clone,
                "dtype": self.dtype,
                # The landed index travels below; its packed copy need not.
                "rec": replace(rec, section=b""),
                "count": task.head,
                "runs": task.runs,
                "strict": task.ctx.strict,
                "retry": self.retry,
                "actor": self.actor,
                "index": self.dataset.chunk_index(rec),
                "checksum_entry": self.manifest.checksums.get(rec.file_path),
                "shm_name": shm_name,
                "byte_offset": off * dest.dtype.itemsize,
                "n": len(dest),
                "result_dtype": dest.dtype,
                "note_io": note_io,
            }
            wrapped.append(ProcessTask(task, _process_entry, payload))
        return wrapped

    def check_generation(self, plan: QueryPlan) -> None:
        """Refuse a plan built against a different generation snapshot."""
        if plan.generation is None:
            return
        current = self.dataset.generation
        if plan.generation != current:
            raise QueryError(
                f"plan was built against generation {plan.generation}, "
                f"dataset now reads generation {current} — re-plan against "
                "the current snapshot"
            )

    def run(
        self,
        plan: QueryPlan,
        exact: bool = False,
        *,
        recorder: Recorder | None = None,
        strict: bool | None = None,
        staged: StagedReads | None = None,
        deadline=None,
    ) -> QueryResult:
        """Execute a plan.  ``exact=True`` filters particles to the plan's box.

        Execution is zero-copy scatter-gather: one result array is
        preallocated from the plan's totals and every per-file read lands
        directly in its slice via the backend's ``readinto`` — no per-file
        allocation and no concatenate copy on the complete-read path.
        Chunk-pruned runs (:attr:`QueryPlan.chunk_runs`) are honoured only
        for exact box reads; a non-exact read must deliver whole files.

        Per-file entries are independent, so they run on the dataset's
        :class:`~repro.io.executor.IoExecutor` (fail-fast in strict
        mode).  Outcomes are consumed in plan order and each entry's
        child recorder is merged back before its partition event is
        emitted, so batches, the :class:`ReadReport`, and the recorder's
        event stream are identical whichever executor ran the plan.

        ``recorder`` defaults to the dataset's; a service passes each
        query its own child so concurrent queries never interleave.
        ``staged`` supplies cross-query pre-read buffers: every entry the
        stage serves is answered on the calling thread before the
        executor starts — one masked span each, already filtered (see
        :meth:`StagedReads.select`) — and emits the partition event a
        direct read would.  Only entries that need backend I/O become
        executor tasks, so a fully stage-served plan never reaches the
        executor.  Strict execution raises on the first (in plan order)
        unrecoverable error; non-strict skips the partition and logs it
        in the returned report.

        ``deadline`` (a :class:`~repro.io.resilience.Deadline`, defaulting
        to the caller's ambient one) bounds the whole execution: it is
        re-entered *inside* each entry's task body — executor worker
        threads do not inherit the caller's context — so the remote tier's
        per-request budgets and retry loops see it, and an entry that
        starts after expiry (stage-served or not) is shed before any work.
        In non-strict mode a shed entry becomes a skipped partition with
        reason ``"deadline"``; breaker fast-fails likewise skip with
        reason ``"unavailable"``.
        """
        self.check_generation(plan)
        recorder = recorder if recorder is not None else self.recorder
        strict = self.strict if strict is None else strict
        deadline = deadline if deadline is not None else current_deadline()
        demand = plan.demand(exact)
        result_dtype = plan.result_dtype(self.dtype)
        #: per entry: its answer from the stage, the error that shed it
        #: before the stage was asked, or None when it reads directly.
        served: list[np.ndarray | Exception | None] = [None] * len(demand)
        if staged is not None:
            keep = partial(_keep_mask, plan, exact)
            for i, (rec, count, runs) in enumerate(demand):
                if runs is not None and not len(runs):
                    continue  # reads nothing: the direct path returns at once
                if deadline is not None:
                    try:
                        deadline.check(f"read {rec.file_path!r}")
                    except DeadlineExceededError as exc:
                        served[i] = exc
                        continue
                served[i] = staged.select(rec, count, runs, result_dtype, keep)
        expected = [
            count if runs is None else runs.total for _rec, count, runs in demand
        ]
        #: entry i reads into out[bounds[i]:bounds[i + 1]] (empty if served).
        bounds = list(
            accumulate(
                (e if s is None else 0 for e, s in zip(expected, served)),
                initial=0,
            )
        )
        pos = bounds[-1]
        # Process-shipped execution decodes every entry directly into one
        # shared-memory block that *is* the result array — workers write
        # their slices in place, so bulk bytes never cross the result pipe
        # and the parent copies nothing per entry.
        clone = self._process_clone(deadline)
        shm_out = None
        if clone is not None:
            try:
                from multiprocessing import shared_memory

                shm_out = shared_memory.SharedMemory(
                    create=True, size=max(1, pos * result_dtype.itemsize)
                )
            except OSError:
                shm_out = None  # no shared memory here: keep reads local
        if shm_out is not None:
            out = np.ndarray(pos, dtype=result_dtype, buffer=shm_out.buf)
        else:
            out = np.empty(pos, dtype=result_dtype)
        ctx = _ReadContext(
            self.backend, self.dtype, strict, self.retry, self.actor,
            deadline, self.dataset.chunk_index, self.manifest.checksums,
        )
        direct = [i for i, answer in enumerate(served) if answer is None]
        tasks = [
            _EntryTask(ctx, *demand[i], out[bounds[i] : bounds[i + 1]])
            for i in direct
        ]
        #: particles delivered per entry (None = skipped, not run or served).
        delivered: list[int | None] = [None] * len(demand)
        mark = recorder.event_mark()
        try:
            with recorder.span(PHASE_FILE_IO, cat="read", files=plan.num_files):
                submitted: list = tasks
                if shm_out is not None:
                    submitted = self._process_tasks(
                        tasks, [bounds[i] for i in direct], clone, shm_out.name
                    )
                outcomes = iter(
                    self.executor.run(submitted, recorder, fail_fast=strict)
                )
                for i, ((rec, _count, _runs), answer) in enumerate(
                    zip(demand, served)
                ):
                    if answer is None:
                        outcome = next(outcomes)
                        if not outcome.ran:
                            break  # fail-fast cut the tail; the error already raised
                        if outcome.recorder is not None:
                            recorder.merge(outcome.recorder)
                        exc = outcome.error
                        if exc is None:
                            delivered[i] = particles = int(outcome.value)
                    elif isinstance(answer, Exception):
                        exc = answer
                    else:
                        exc, particles = None, expected[i]
                    if exc is not None:
                        # A chunk section failing its table CRC is a damaged
                        # table, not a damaged partition: it fails the read
                        # in degraded mode too, as a damaged head fails the open.
                        if (
                            strict
                            or isinstance(exc, MetadataChecksumError)
                            or not isinstance(exc, (BackendError, FormatError))
                        ):
                            raise exc
                        recorder.event(
                            EV_PARTITION_SKIPPED,
                            path=rec.file_path,
                            box_id=rec.box_id,
                            reason=_skip_reason(exc),
                            error=str(exc),
                        )
                        continue
                    recorder.event(
                        EV_PARTITION_READ,
                        path=rec.file_path,
                        box_id=rec.box_id,
                        particles=particles,
                    )
            if shm_out is not None:
                # Land the result in private memory with one bulk copy so
                # the shared block can be released before returning.
                plain = np.empty_like(out)
                np.copyto(plain, out)
                out = plain
        finally:
            report = ReadReport.from_events(recorder.events_since(mark))
            if shm_out is not None:
                # Unlink only: the entry slices (the tasks' `dest`s) still
                # reference the mapping, so the munmap happens via
                # GC when this frame's locals die.  The kernel keeps the
                # memory alive until then; the name is gone immediately.
                try:
                    shm_out.unlink()
                except OSError:
                    pass
        if any(isinstance(answer, np.ndarray) for answer in served):
            # Stage answers arrive filtered; direct entries are filtered
            # here, and the pieces join in plan order.
            pieces = []
            for i, (answer, d) in enumerate(zip(served, delivered)):
                if isinstance(answer, np.ndarray):
                    pieces.append(answer)
                elif d is not None:
                    pieces.append(_filtered(plan, exact, out[bounds[i] : bounds[i] + d]))
            if len(pieces) == 1:
                result = pieces[0]
            else:  # joined as opaque records: no per-field dtype promotion
                void = np.dtype((np.void, result_dtype.itemsize))
                result = np.concatenate([p.view(void) for p in pieces]).view(result_dtype)
            return QueryResult(ParticleBatch(result), report, plan)
        if all(
            d is not None and d == e for d, e in zip(delivered, expected)
        ):
            result = out  # every slice filled: the preallocation IS the result
        else:
            # A chunk-degraded columnar read can deliver *fewer* particles
            # than its slice (survivors packed at the slice head), so any
            # short delivery also routes through the compacting branch.
            kept = [
                out[bounds[i] : bounds[i] + d]
                for i, d in enumerate(delivered)
                if d is not None
            ]
            result = (
                np.concatenate(kept)
                if kept
                else np.empty(0, dtype=out.dtype)
            )
        # One fused mask, one compaction.
        return QueryResult(ParticleBatch(_filtered(plan, exact, result)), report, plan)

    def __repr__(self) -> str:
        return f"QueryEngine({self.dataset!r})"
