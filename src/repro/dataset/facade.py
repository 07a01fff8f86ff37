"""The :class:`Dataset` facade: one open/validate lifecycle for all consumers.

A dataset on disk is three things — ``manifest.json`` (the commit marker
and dtype/LOD/provenance record), ``spatial.meta`` (the binary per-file
table, chunk indexes included), and ``data/*`` (the particle files).
Opening one correctly means reading the manifest and the table's O(files)
head in order, validating their format versions and checksums (the
manifest commits the table's CRC), and then carrying a consistent policy
bundle (strict vs. degraded, retry, instrumentation, execution) into every
per-file operation that follows.  A file's chunk section is fetched from
the table the first time a plan touches that file (:meth:`chunk_index`).

:class:`Dataset` owns exactly that bundle:

* ``backend`` — where the bytes live (or a path, wrapped in a read-only
  :class:`~repro.io.posix.PosixBackend`);
* ``strict`` — raise on the first unrecoverable per-file error (True) or
  degrade and report (False);
* ``retry`` — the :class:`~repro.io.retry.RetryPolicy` applied to
  transient backend faults;
* ``recorder`` — the obs :class:`~repro.obs.recorder.Recorder` every
  lifecycle phase and derived component records into;
* ``executor`` — the :class:`~repro.io.executor.IoExecutor` that runs
  independent per-file operations (serial by default, threaded for real
  concurrency on GIL-releasing backends).

Consumers hang off the facade: :meth:`reader` (spatial queries),
:meth:`scrub` (integrity verification), :meth:`is_complete` (the commit
probe).  This module is the **only** place in the library that calls
``Manifest.read`` / ``SpatialMetadata.read`` — everything else goes
through here.

Generation pinning (MVCC): opening a dataset resolves which generation to
read **once** — the ``CURRENT`` pointer for chained datasets, the classic
``manifest.json`` otherwise — and every subsequent manifest/metadata/chunk
access goes through that pinned resolution.  A writer appending generation
N+1 touches only new paths and flips ``CURRENT`` last, so an open facade's
queries stay bit-identical to the generation it opened.  Pass
``generation=`` to pin an explicit (older) generation for snapshot reads;
:meth:`invalidate_cache` drops the resolution along with the memos, so the
next access re-resolves and observes new commits.
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
from typing import TYPE_CHECKING

from repro.format.generations import ResolvedGeneration, resolve_generation
from repro.format.manifest import Manifest
from repro.format.metadata import SpatialMetadata, check_table_crc, read_section
from repro.io.backend import FileBackend
from repro.io.executor import IoExecutor, SerialExecutor
from repro.io.retry import RetryPolicy
from repro.obs.names import EV_CURRENT_FALLBACK, GEN_FALLBACKS, PHASE_METADATA
from repro.obs.recorder import Recorder

if TYPE_CHECKING:  # circular at runtime: core imports repro.dataset
    from repro.core.reader import SpatialReader
    from repro.core.repair import RepairReport
    from repro.core.scrub import ScrubReport
    from repro.query.engine import QueryEngine

__all__ = ["Dataset", "open_dataset", "as_dataset"]


def _as_backend(target: FileBackend | str | os.PathLike) -> FileBackend:
    """Paths become read-only POSIX backends; backends pass through."""
    if isinstance(target, FileBackend):
        return target
    from repro.io.posix import PosixBackend

    return PosixBackend(target, create=False)


class Dataset:
    """One dataset plus the policy bundle every consumer shares.

    Construction is cheap and never touches storage; :meth:`load` (or the
    eager :meth:`open` classmethod) reads and validates the manifest and
    spatial-metadata table under a ``metadata`` span.  The ``manifest`` /
    ``metadata`` properties load lazily on first access, so
    consumers that only need one piece (or none — scrubbing a damaged
    dataset) can use the granular ``read_*`` methods instead.
    """

    def __init__(
        self,
        target: FileBackend | str | os.PathLike,
        *,
        actor: int = -1,
        strict: bool = True,
        retry: RetryPolicy | None = None,
        recorder: Recorder | None = None,
        executor: IoExecutor | None = None,
        cache_bytes: int = 0,
        generation: int | None = None,
    ):
        self.backend = _as_backend(target)
        if cache_bytes:
            from repro.io.cache import CachingBackend

            self.backend = CachingBackend(self.backend, cache_bytes)
        self.actor = actor
        self.strict = strict
        self.retry = retry if retry is not None else RetryPolicy()
        self.recorder = (
            recorder if recorder is not None else Recorder(rank=max(actor, 0))
        )
        self.executor = executor if executor is not None else SerialExecutor()
        #: Explicit generation pin (snapshot reads); None = follow CURRENT.
        self._pin_generation = generation
        # One facade is shared by every reader/engine/service client, so all
        # lazy state below — generation resolution, manifest/metadata load,
        # planning memos — is guarded by one reentrant lock.  Reentrant
        # because the memoized pieces compose (load() resolves, planning
        # tables read the loaded metadata) and per-piece locks would either
        # deadlock or leave observable half-initialised windows.
        self._memo_lock = threading.RLock()
        self._resolved: ResolvedGeneration | None = None
        self._manifest: Manifest | None = None
        self._metadata: SpatialMetadata | None = None
        # Read-planning memos (see the planning-tables section below).
        self._lod_tables: dict[tuple[int, int], list[int]] = {}
        self._box_index: dict[int, int] | None = None
        self._chunk_indexes: dict[str, object] = {}
        self._engine: "QueryEngine | None" = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls, target: FileBackend | str | os.PathLike, **kwargs: object
    ) -> "Dataset":
        """Construct and eagerly load/validate — the common entry point."""
        return cls(target, **kwargs).load()  # type: ignore[arg-type]

    def resolution(self) -> ResolvedGeneration:
        """Which generation this facade reads, resolved once and pinned.

        Resolution order: an explicit ``generation=`` pin wins; otherwise a
        valid ``CURRENT`` pointer; otherwise fall back to the newest fully
        verifiable generation (recorded as a ``generation.fallback``
        event); a dataset with neither pointer nor chain is the classic
        generation-0 layout.
        """
        with self._memo_lock:
            if self._resolved is None:
                resolved = resolve_generation(
                    self.backend, pin=self._pin_generation, actor=self.actor
                )
                if resolved.fallback:
                    self.recorder.add(GEN_FALLBACKS)
                    self.recorder.event(
                        EV_CURRENT_FALLBACK,
                        generation=resolved.generation,
                        detail=resolved.detail,
                    )
                self._resolved = resolved
            return self._resolved

    def load(self) -> "Dataset":
        """Read + validate the manifest and the spatial table's head
        (idempotent).

        Both reads happen under one ``metadata`` span on the dataset's
        recorder, against the pinned generation's paths (see
        :meth:`resolution`); format-version and checksum validation happens
        inside the format layer and surfaces as
        :class:`~repro.errors.FormatError` subclasses.  The table must be
        the one the manifest commits (``spatial_meta_crc32``).
        """
        with self._memo_lock:
            if self._manifest is None or self._metadata is None:
                with self.recorder.span(PHASE_METADATA, cat="read"):
                    resolved = self.resolution()
                    # A chained dataset's manifest was parsed to validate
                    # CURRENT; that parse is the load.
                    self._manifest = resolved.manifest
                    if self._manifest is None:
                        self._manifest = Manifest.read(
                            self.backend, resolved.manifest_path, actor=self.actor
                        )
                    metadata = SpatialMetadata.read(
                        self.backend, resolved.meta_path, actor=self.actor
                    )
                    check_table_crc(
                        self._manifest.spatial_meta_crc32, metadata, resolved.meta_path
                    )
                    self._metadata = metadata
        return self

    @property
    def loaded(self) -> bool:
        return self._manifest is not None and self._metadata is not None

    @property
    def manifest(self) -> Manifest:
        if self._manifest is None:
            self.load()
        assert self._manifest is not None
        return self._manifest

    @property
    def metadata(self) -> SpatialMetadata:
        if self._metadata is None:
            self.load()
        assert self._metadata is not None
        return self._metadata

    # -- generation chain ----------------------------------------------------

    @property
    def pinned_generation(self) -> int | None:
        """The explicit generation pin, or None when following CURRENT."""
        return self._pin_generation

    @property
    def generation(self) -> int:
        """The generation this facade reads (resolving if needed)."""
        return self.resolution().generation

    def generations(self) -> list[int]:
        """Every generation with a manifest on disk, ascending."""
        from repro.format.generations import list_generations

        return list_generations(self.backend)

    def at_generation(self, gen: int) -> "Dataset":
        """A sibling facade pinned to ``gen`` (snapshot/time-travel reads).

        Shares the backend and policy bundle; caches are independent, so
        two pins never cross-contaminate memoized state.
        """
        return Dataset(
            self.backend,
            actor=self.actor,
            strict=self.strict,
            retry=self.retry,
            recorder=self.recorder,
            executor=self.executor,
            generation=gen,
        )

    # -- granular pieces (scrub and manifest-only formats) -------------------

    def manifest_exists(self) -> bool:
        return self.backend.exists(self.resolution().manifest_path)

    def metadata_exists(self) -> bool:
        return self.backend.exists(self.resolution().meta_path)

    def read_manifest(self) -> Manifest:
        """Read just the manifest, uncached.

        For consumers of manifest-only datasets (the baselines' formats
        carry no spatial table) and for scrubbing, where each piece is
        probed independently with its own error policy.
        """
        return Manifest.read(
            self.backend, self.resolution().manifest_path, actor=self.actor
        )

    def read_metadata(self) -> SpatialMetadata:
        """Read just the spatial table, uncached (see :meth:`read_manifest`)."""
        return SpatialMetadata.read(
            self.backend, self.resolution().meta_path, actor=self.actor
        )

    # -- basic facts ---------------------------------------------------------

    @property
    def dtype(self):
        return self.manifest.dtype

    @property
    def total_particles(self) -> int:
        return self.metadata.total_particles

    @property
    def num_files(self) -> int:
        return len(self.metadata)

    def domain(self):
        return self.metadata.domain()

    # -- memoized planning tables -------------------------------------------
    #
    # Read planning consults the same derived tables for every query: the
    # per-file LOD prefix apportionment (fixed per (max_level, nreaders)),
    # the box_id -> record-position index, and the per-file chunk indexes.
    # All are pure functions of the loaded metadata/manifest, so they are
    # computed once here and shared by every reader hanging off this facade;
    # :meth:`invalidate_cache` drops them with the metadata they derive from.

    def lod_prefix_table(self, max_level: int, nreaders: int) -> list[int]:
        """Per-file particle counts for levels ``0..max_level`` split over
        ``nreaders`` (memoized :func:`repro.core.lod.lod_prefix_counts`)."""
        key = (int(max_level), int(nreaders))
        with self._memo_lock:
            table = self._lod_tables.get(key)
            if table is None:
                import repro.core.lod as lod

                table = lod.lod_prefix_counts(
                    [r.particle_count for r in self.metadata.records],
                    nreaders,
                    max_level,
                    base=self.manifest.lod_base,
                    scale=self.manifest.lod_scale,
                )
                self._lod_tables[key] = table
            return table

    def box_id_index(self) -> dict[int, int]:
        """``box_id -> position`` over the metadata table (memoized)."""
        with self._memo_lock:
            if self._box_index is None:
                self._box_index = {
                    r.box_id: i for i, r in enumerate(self.metadata.records)
                }
            return self._box_index

    def chunk_index(self, rec) -> "object | None":
        """The validated :class:`~repro.format.chunks.FileChunkIndex` for
        ``rec``'s data file, or ``None``.

        Landed from ``rec``'s chunk section into owned, aligned arrays; a
        table opened by its head leaves the section in the table file, so
        the first call per file fetches it with one ranged read.  A section
        whose bytes fail the CRC32 the head records raises
        :class:`~repro.errors.MetadataChecksumError`, in strict and degraded
        mode alike.  ``None`` means no index was recorded (chunking
        disabled, empty file) *or* the recorded one fails validation —
        planning silently falls back to whole-file reads either way and
        leaves flagging a damaged index to the scrubber.  A columnar file of
        a pre-section table has no whole-file read without its segment
        descriptors, so its index is landed from the file's recovery trailer
        instead.  Memoized per file; a fetch that fails with a
        :class:`~repro.errors.BackendError` is not, so the next plan retries.
        """
        path = rec.file_path
        with self._memo_lock:
            if path not in self._chunk_indexes:
                from repro.errors import BackendError, FormatError
                from repro.format.chunks import FileChunkIndex
                from repro.format.datafile import read_recovery_trailer

                codec = self.manifest.checksums.get(path, {}).get("codec")
                section, index = rec.section, None
                try:
                    if not section and rec.section_ref is not None:
                        section = self.retry.call(
                            read_section, self.backend, self.resolution().meta_path,
                            rec, self.actor,
                        )
                    elif not section and codec is not None:
                        with suppress(FormatError):
                            section = self.retry.call(
                                read_recovery_trailer, self.backend, path,
                                actor=self.actor,
                            ).record.section
                except BackendError:
                    return None  # not memoized: the next plan retries the fetch
                if section:
                    with suppress(FormatError):
                        index = FileChunkIndex.unpack(section, path).validated(
                            rec.particle_count, path, codec,
                            tuple(self.metadata.attr_names),
                        )
                self._chunk_indexes[path] = index
            return self._chunk_indexes[path]

    # -- consumers -----------------------------------------------------------

    def reader(self) -> "SpatialReader":
        """A spatial reader bound to this dataset's policy bundle."""
        from repro.core.reader import SpatialReader

        return SpatialReader(self)

    def engine(self) -> "QueryEngine":
        """The shared stateless :class:`~repro.query.engine.QueryEngine`.

        Memoized: every reader, series step, CLI command, and serving-layer
        client executing against this facade shares one engine (the engine
        holds no per-query state, so sharing is free and keeps the planning
        memos hot).  Survives :meth:`invalidate_cache` — the engine proxies
        the facade, so it observes re-resolved state automatically.
        """
        with self._memo_lock:
            if self._engine is None:
                from repro.query.engine import QueryEngine

                self._engine = QueryEngine(self)
            return self._engine

    def scrub(self) -> "ScrubReport":
        """Verify every on-disk invariant (per-file work on the executor)."""
        from repro.core.scrub import scrub_dataset

        return scrub_dataset(self)

    def repair(
        self, report: "ScrubReport | None" = None, *, dry_run: bool = False
    ) -> "RepairReport":
        """Plan and (unless ``dry_run``) execute repairs for every issue a
        scrub found; see :func:`repro.core.repair.repair_dataset`."""
        from repro.core.repair import repair_dataset

        return repair_dataset(self, report, dry_run=dry_run)

    def invalidate_cache(self) -> "Dataset":
        """Drop the cached manifest/metadata so the next access re-reads.

        The generation resolution is dropped too (an explicit pin is
        kept): a facade held open across a repair, append, or compaction
        re-resolves and observes the newly committed state.  Called
        automatically after :meth:`repair` executes any action; harmless
        otherwise."""
        with self._memo_lock:
            self._resolved = None
            self._manifest = None
            self._metadata = None
            self._lod_tables = {}
            self._box_index = None
            self._chunk_indexes = {}
        return self

    def is_complete(self) -> bool:
        """The two-phase-commit probe: marker present and everything it
        references on disk."""
        from repro.core.scrub import dataset_is_complete

        return dataset_is_complete(self)

    def __repr__(self) -> str:
        state = "loaded" if self.loaded else "unloaded"
        return (
            f"Dataset({self.backend!r}, {state}, strict={self.strict}, "
            f"executor={self.executor!r})"
        )


def open_dataset(
    target: FileBackend | str | os.PathLike,
    *,
    auto_repair: bool = False,
    **kwargs: object,
) -> Dataset:
    """Module-level alias of :meth:`Dataset.open`.

    With ``auto_repair=True`` the dataset is scrubbed first and, if damaged,
    repaired in place (see :func:`repro.core.repair.repair_dataset`) before
    the strict open — the self-healing open for unattended consumers.
    """
    if not auto_repair:
        return Dataset.open(target, **kwargs)
    ds = Dataset(target, **kwargs)  # type: ignore[arg-type]
    report = ds.scrub()
    if not report.ok:
        ds.repair(report)
    return ds.load()


def as_dataset(target: "Dataset | FileBackend | str | os.PathLike", **kwargs: object) -> Dataset:
    """Coerce a backend/path into an (unloaded) facade; pass facades through.

    The adapter consumers use to accept either form without re-wrapping a
    caller-configured dataset (which would drop its policy bundle).
    """
    if isinstance(target, Dataset):
        return target
    return Dataset(target, **kwargs)  # type: ignore[arg-type]
