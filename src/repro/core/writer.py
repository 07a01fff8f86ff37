"""The spatially-aware two-phase writer: the paper's eight-step pipeline (§3).

    (1) set up the aggregation-grid          -> repro.core.aggregation / adaptive
    (2) select aggregators                   -> repro.core.aggregation
    (3) exchange metadata                    -> repro.core.exchange
    (4) allocate the aggregation buffer      -> repro.core.exchange
    (5) exchange particles                   -> repro.core.exchange
    (6) shuffle particles into LOD order     -> repro.core.lod
    (7) write one data file per aggregator   -> repro.format.datafile
    (8) gather + write the spatial metadata  -> repro.format.metadata

``SpatialWriter.write`` is SPMD: every rank of the communicator calls it
with its local particles and the shared domain decomposition.  Output files
land in the given backend: ``data/file_<aggrank>.pbin`` per aggregator, plus
``spatial.meta`` and ``manifest.json`` from rank 0.

Step 8 is a *gather*: only rank 0 reads the per-file records and checksum
entries, so nothing is fanned back.  Likewise ``SpatialWriter.append`` has
rank 0 alone resolve, read and parse the base generation; one small ``bcast``
hands the other ranks the facts they validate against, or the typed error.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.adaptive import build_adaptive_grid
from repro.core.aggregation import AggregationGrid, BaseAggregationGrid, FreeAggregationGrid
from repro.core.config import WriterConfig
from repro.core.exchange import exchange_particles
from repro.core.lod import chunk_cluster_order, order_for_heuristic
from repro.domain.decomposition import PatchDecomposition
from repro.domain.grid import CellGrid
from repro.errors import (
    BackendError,
    ConfigError,
    DataFileError,
    MPIError,
    ReproError,
)
from repro.format.chunks import build_chunk_entry
from repro.format.datafile import (
    RecoveryTrailer,
    compute_file_checksums,
    encode_columnar_payload,
    prefix_checksum_boundaries,
    write_columnar_data_file,
    write_data_file,
)
from repro.format.generations import (
    CURRENT_PATH,
    generation_manifest_path,
    generation_meta_path,
    list_generations,
    load_generation,
    resolve_generation,
    write_current,
)
from repro.format.manifest import MANIFEST_PATH, Manifest, dtype_to_descr
from repro.format.metadata import (
    META_PATH,
    MetadataRecord,
    SpatialMetadata,
    data_file_name,
    table_crc32,
)
from repro.io.backend import FileBackend
from repro.io.retry import RetryPolicy
from repro.mpi.comm import SimComm
from repro.obs.names import (
    EV_GENERATION_COMMIT,
    GEN_COMMITS,
    IO_RETRIES,
    PHASE_AGGREGATION,
    PHASE_FILE_IO,
    PHASE_LOD,
    PHASE_METADATA,
    PHASE_SETUP,
)
from repro.obs.recorder import Recorder
from repro.particles.batch import ParticleBatch
from repro.utils.timing import TimeBreakdown

#: Generation-namespaced data file names (``gN_file_R.pbin``) — what a full
#: overwrite sweeps out of ``data/`` when it invalidates an append chain.
_GEN_DATA_RE = re.compile(r"g[1-9]\d*_file_\d+\.pbin")
DATA_DIR = "data"

#: Phase names (Fig. 6's two bars are ``aggregation`` and ``file_io``) are
#: defined in the :mod:`repro.obs.names` registry; re-exported here for the
#: historical import path.
__all__ = [
    "GenerationCommit",
    "SpatialWriter",
    "WriteResult",
    "PHASE_SETUP",
    "PHASE_AGGREGATION",
    "PHASE_LOD",
    "PHASE_FILE_IO",
    "PHASE_METADATA",
]


@dataclass
class WriteResult:
    """Per-rank outcome of a collective write.

    Accounting (phase times, retries) is not stored here — it lives in the
    rank's obs :attr:`recorder`; :attr:`breakdown` and :attr:`retries` are
    derived views over it.
    """

    rank: int
    num_files: int
    files_written: list[str] = field(default_factory=list)
    bytes_written: int = 0
    particles_sent: int = 0
    particles_received: int = 0
    aggregators_contacted: int = 0
    #: Generation this write committed (0 for a classic full write).
    generation: int = 0
    #: The rank's instrumentation record for this write (spans + counters).
    recorder: Recorder = field(default_factory=Recorder)

    @property
    def is_aggregator(self) -> bool:
        return bool(self.files_written)

    @property
    def breakdown(self) -> TimeBreakdown:
        """Fig. 6 phase view, derived from the recorder's spans."""
        return self.recorder.breakdown(cat="phase")

    @property
    def retries(self) -> int:
        """Backend writes that had to be retried (transient faults absorbed)."""
        return int(self.recorder.total(IO_RETRIES))


@dataclass(frozen=True)
class GenerationCommit:
    """How one append commits onto the generation chain.

    Built by :meth:`SpatialWriter.append` from the resolved base generation
    and threaded through the write pipeline: new data files are namespaced
    ``data/g<generation>_file_R.pbin``, the base inventory is merged
    forward into the new manifest/table, and flipping ``CURRENT`` to
    ``generation`` is the commit point.
    """

    generation: int
    parent: int
    #: The base generation's full table, chunk sections as read, carried
    #: forward verbatim.  Only rank 0 merges, so it is empty elsewhere.
    base_records: tuple[MetadataRecord, ...]
    #: The base generation's per-file checksum entries — rank 0 only, too.
    base_checksums: dict[str, dict]
    #: New partition box_ids are offset past every existing one so the
    #: merged table stays unique (held by every rank: aggregators number
    #: their own records).
    box_id_offset: int


class SpatialWriter:
    """Writes particle datasets with spatially-aware two-phase I/O.

    Fault tolerance (beyond the paper): every backend write goes through a
    :class:`~repro.io.retry.RetryPolicy` (transient faults absorbed with
    deterministic backoff), output is committed in two phases — data files,
    then ``spatial.meta``, then ``manifest.json`` as the commit marker — and
    an aborted write cleans up its own partial data files, so an interrupted
    dataset is always detectable via
    :func:`~repro.core.scrub.dataset_is_complete` and never masquerades as a
    valid one.
    """

    def __init__(
        self,
        config: WriterConfig | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.config = config or WriterConfig()
        self.retry = retry or RetryPolicy()
        # The last static grid built, under the facts it was built from.
        self._grid: tuple[tuple, BaseAggregationGrid] | None = None

    # -- grid construction (steps 1-2) ---------------------------------------

    def build_grid(
        self,
        comm: SimComm,
        decomp: PatchDecomposition,
        local_count: int,
    ) -> BaseAggregationGrid:
        """Step 1+2: build the aggregation grid and pick aggregators.

        Adaptive mode needs one collective (the extent/count allgather of
        §6), so it builds per write.  The static modes are a pure function
        of the decomposition and the partitioning settings: the grid is
        built once and kept until one of those changes.  Grids are
        read-only once built, so ranks sharing a writer share one grid.
        """
        cfg = self.config
        if decomp.nprocs != comm.size:
            raise ConfigError(
                f"decomposition has {decomp.nprocs} patches, "
                f"communicator has {comm.size} ranks"
            )
        if cfg.adaptive:
            counts = comm.allgather(int(local_count))
            return build_adaptive_grid(decomp, counts, cfg.partition_factor)
        key = (
            cfg.align_to_patches,
            cfg.partition_factor,
            decomp.proc_dims,
            decomp.domain.lo.tobytes(),
            decomp.domain.hi.tobytes(),
        )
        cached = self._grid
        if cached is not None and cached[0] == key:
            return cached[1]
        grid: BaseAggregationGrid
        if cfg.align_to_patches:
            grid = AggregationGrid.aligned(decomp, cfg.partition_factor)
        else:
            dims = tuple(
                max(1, -(-decomp.proc_dims[a] // cfg.partition_factor[a]))
                for a in range(3)
            )
            grid = FreeAggregationGrid(decomp, CellGrid(decomp.domain, dims))
        self._grid = (key, grid)
        return grid

    # -- the full pipeline -----------------------------------------------------

    def write(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        decomp: PatchDecomposition,
        backend: FileBackend,
        recorder: Recorder | None = None,
    ) -> WriteResult:
        """Full overwrite: the dataset becomes exactly this write's output."""
        return self._write(comm, batch, decomp, backend, recorder, commit=None)

    def append(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        decomp: PatchDecomposition,
        backend: FileBackend,
        recorder: Recorder | None = None,
    ) -> WriteResult:
        """Append a new generation on top of the committed one.

        MVCC on the existing atomic primitives: new data lands only under
        generation-namespaced paths, the base inventory is merged forward
        into ``manifest.gen-N.json``/``spatial.gen-N.meta``, and flipping
        the checksummed ``CURRENT`` pointer is the commit — a reader pinned
        to the base generation never observes a changed byte, and a crash
        anywhere leaves the dataset at exactly generation N or N+1.

        The appended batch must be compatible with the base dataset: same
        dtype, same LOD parameters, same indexed attributes (all three are
        dataset-wide facts the reader takes from one manifest).
        """
        cfg = self.config
        # Only rank 0 merges the base forward, so only rank 0 loads it: one
        # manifest parse per append, whatever the rank count.  The bcast
        # carries what every rank validates against, or the typed error.
        facts: tuple | ReproError | None = None
        base_records: tuple[MetadataRecord, ...] = ()
        base_checksums: dict[str, dict] = {}
        if comm.rank == 0:
            try:
                resolved = resolve_generation(backend)
                base_manifest, base_meta = load_generation(
                    backend, resolved.generation, manifest=resolved.manifest
                )
                base_records = tuple(base_meta.records)
                base_checksums = dict(base_manifest.checksums)
                facts = (
                    resolved.generation,
                    base_manifest.lod_base,
                    base_manifest.lod_scale,
                    (base_manifest.lod_heuristic, base_manifest.lod_seed),
                    base_meta.attr_names,
                    base_manifest.dtype,
                    max((r.box_id for r in base_records), default=-1) + 1,
                )
            except ReproError as exc:
                facts = exc
        facts = comm.bcast(facts)
        try:
            if isinstance(facts, ReproError):
                raise facts
            parent, lod_base, lod_scale, lod_order, attr_names, base_dtype, next_box_id = facts
            if (lod_base, lod_scale) != (cfg.lod_base, cfg.lod_scale):
                raise ConfigError(
                    f"append LOD parameters ({cfg.lod_base}, {cfg.lod_scale}) do "
                    f"not match the base generation's ({lod_base}, {lod_scale})"
                )
            if lod_order != (cfg.lod_heuristic, cfg.lod_seed):
                raise ConfigError(
                    f"append LOD heuristic and seed {(cfg.lod_heuristic, cfg.lod_seed)} "
                    f"do not match the base generation's {lod_order}"
                )
            if tuple(cfg.attr_index) != attr_names:
                raise ConfigError(
                    f"append attr_index {tuple(cfg.attr_index)} does not match "
                    f"the base generation's {attr_names}"
                )
            if np.dtype(batch.dtype) != base_dtype:
                raise ConfigError(
                    f"append dtype {batch.dtype} does not match the base "
                    f"generation's {base_dtype}"
                )
        except ReproError:
            # Fail as one: raising poisons the world under peers still
            # waiting for the bcast, so nobody raises before everybody holds
            # the verdict — every rank then surfaces the typed error itself.
            try:
                comm.barrier()
            except MPIError:
                pass  # a faster peer is already out and raising the same
            raise
        commit = GenerationCommit(
            generation=parent + 1,
            parent=parent,
            base_records=base_records,
            base_checksums=base_checksums,
            box_id_offset=next_box_id,
        )
        return self._write(comm, batch, decomp, backend, recorder, commit=commit)

    def write_as_generation(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        decomp: PatchDecomposition,
        backend: FileBackend,
        commit: GenerationCommit,
        recorder: Recorder | None = None,
    ) -> WriteResult:
        """Write ``batch`` as an explicit generation commit.

        The compactor's entry point: it rewrites the whole dataset as a
        full-replacement generation (empty base in ``commit``), so the
        caller decides the generation/parent pair instead of the resolver.
        The commit discipline is identical to :meth:`append` — nothing is
        visible until the ``CURRENT`` flip.
        """
        return self._write(comm, batch, decomp, backend, recorder, commit=commit)

    def _write(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        decomp: PatchDecomposition,
        backend: FileBackend,
        recorder: Recorder | None,
        commit: GenerationCommit | None,
    ) -> WriteResult:
        cfg = self.config
        gen = commit.generation if commit is not None else 0
        rec = recorder if recorder is not None else Recorder(rank=comm.rank)
        result = WriteResult(
            rank=comm.rank, num_files=0, generation=gen, recorder=rec
        )

        with rec.span(PHASE_SETUP):
            grid = self.build_grid(comm, decomp, len(batch))
            result.num_files = grid.num_files

        # Two-phase commit, phase 0: invalidate any previous commit marker
        # before the first data byte moves, so a failed overwrite of an
        # existing dataset can never be read as either the old or a
        # Franken-mix of old and new.  A full overwrite also invalidates a
        # generation chain wholesale (its manifests reference data files the
        # overwrite is about to replace); an append skips this entirely —
        # committed generations stay readable throughout.
        if commit is None:
            if comm.rank == 0:
                backend.delete(MANIFEST_PATH, missing_ok=True)
                backend.delete(CURRENT_PATH, missing_ok=True)
                for old_gen in list_generations(backend):
                    if old_gen > 0:
                        # Manifest first (the gen's own commit marker), then
                        # its table and namespaced data files — a crash here
                        # can leave orphans but never a readable half-chain.
                        backend.delete(
                            generation_manifest_path(old_gen), missing_ok=True
                        )
                        backend.delete(
                            generation_meta_path(old_gen), missing_ok=True
                        )
                try:
                    stale = [
                        n
                        for n in backend.listdir(DATA_DIR)
                        if _GEN_DATA_RE.fullmatch(n)
                    ]
                except BackendError:
                    stale = []
                for name in stale:
                    backend.delete(f"{DATA_DIR}/{name}", missing_ok=True)
            comm.barrier()

        # Steps 3-5: metadata exchange, buffer allocation, particle exchange.
        with rec.span(PHASE_AGGREGATION):
            exchange = exchange_particles(comm, grid, batch)
        result.particles_sent = exchange.particles_sent
        result.particles_received = exchange.particles_received
        result.aggregators_contacted = exchange.aggregators_contacted

        # Step 6: LOD reordering, per owned partition: one permutation,
        # applied to the rows once.
        ordered: dict[int, ParticleBatch] = {}
        with rec.span(PHASE_LOD):
            for pid, agg_batch in exchange.aggregated.items():
                if len(agg_batch):
                    order = order_for_heuristic(
                        agg_batch,
                        cfg.lod_heuristic,
                        cfg.lod_seed,
                        agg_rank=comm.rank,
                        bounds=grid.partition_box(pid),
                    )
                    if cfg.chunk_size:
                        # Regroup each level into spatially tight chunks so
                        # the sub-file chunk index can actually prune; level
                        # sets (and thus every boundary prefix) are unchanged.
                        # Clustering sees the positions in LOD order only,
                        # gathered as (3, n) rows: a column gather out of
                        # the records would stride over every row's bytes.
                        coords = np.ascontiguousarray(agg_batch.positions.T)
                        order = order[
                            chunk_cluster_order(
                                coords.take(order, axis=1).T,
                                prefix_checksum_boundaries(
                                    len(order), cfg.lod_base, cfg.lod_scale
                                ),
                                cfg.chunk_size,
                                seed=cfg.lod_seed,
                                agg_rank=comm.rank,
                            )
                        ]
                    agg_batch = agg_batch.permuted(order)
                ordered[pid] = agg_batch

        # Data files are named after the aggregator rank (Fig. 4), so a rank
        # that owns more than one partition would silently overwrite its own
        # output.  No supported grid produces that mapping today; refuse
        # loudly if one ever does rather than losing a partition.
        if len(ordered) > 1:
            raise DataFileError(
                f"aggregator rank {comm.rank} owns partitions "
                f"{sorted(ordered)}, but data files are named per aggregator "
                f"rank ({data_file_name(comm.rank, gen)!r}) — writing them would "
                "overwrite each other. Use an aggregation grid that assigns "
                "at most one partition per aggregator."
            )

        try:
            # Step 7 (commit phase 1): one independent file per aggregator.
            local_records: list[MetadataRecord] = []
            local_checksums: dict[str, dict] = {}
            with rec.span(PHASE_FILE_IO):
                for pid, agg_batch in ordered.items():
                    path = data_file_name(comm.rank, gen)
                    sums = compute_file_checksums(
                        agg_batch, cfg.lod_base, cfg.lod_scale
                    )
                    index = None
                    if cfg.chunk_size and len(agg_batch):
                        # Sub-file spatial chunk index: per-chunk byte
                        # ranges + tight bounds, aligned to the same LOD
                        # boundaries the prefix checksums use.
                        index = build_chunk_entry(
                            agg_batch,
                            cfg.chunk_size,
                            prefix_checksum_boundaries(
                                len(agg_batch), cfg.lod_base, cfg.lod_scale
                            ),
                            cfg.attr_index,
                        )
                    # Columnar layout (format v4): transpose the chunked
                    # payload into encoded per-attribute column segments.
                    # The prefix checksums above stay *logical* (row-payload
                    # CRCs at LOD boundaries) while payload_crc32 switches
                    # to the stored encoded bytes, and the chunk index
                    # grows per-segment (offset, length, crc32) descriptors.
                    columnar = cfg.layout == "columnar" and index is not None
                    payload = b""
                    if columnar:
                        payload, index.segments = encode_columnar_payload(
                            agg_batch, index, cfg.codec
                        )
                        sums["payload_crc32"] = zlib.crc32(payload)
                        sums["codec"] = cfg.codec
                    record = MetadataRecord(
                        box_id=pid + (commit.box_id_offset if commit else 0),
                        agg_rank=comm.rank,
                        particle_count=len(agg_batch),
                        bounds=grid.partition_box(pid),
                        attr_ranges=self._attr_ranges(agg_batch),
                        gen=gen,
                        section=index.to_section() if index is not None else b"",
                    )
                    # Format v3/v4: every data file carries a recovery
                    # trailer holding its metadata record (the same packed
                    # section) + manifest checksum entry, so the dataset
                    # survives losing both.
                    trailer = RecoveryTrailer(
                        record,
                        payload_crc32=sums["payload_crc32"],
                        prefixes=tuple(map(tuple, sums["prefixes"])),
                        codec=cfg.codec if columnar else None,
                        dtype_descr=dtype_to_descr(agg_batch.dtype),
                        lod_base=cfg.lod_base,
                        lod_scale=cfg.lod_scale,
                        lod_heuristic=cfg.lod_heuristic,
                        lod_seed=cfg.lod_seed,
                    )
                    if columnar:
                        result.bytes_written += self.retry.call(
                            write_columnar_data_file,
                            backend,
                            path,
                            payload,
                            agg_batch.dtype.itemsize,
                            len(agg_batch),
                            trailer,
                            actor=comm.rank,
                            recorder=rec,
                        )
                    else:
                        result.bytes_written += self.retry.call(
                            write_data_file,
                            backend,
                            path,
                            agg_batch,
                            actor=comm.rank,
                            trailer=trailer,
                            payload_crc32=sums["payload_crc32"],
                            recorder=rec,
                        )
                    result.files_written.append(path)
                    local_checksums[path] = sums
                    local_records.append(record)

            # Step 8 (commit phases 2+3): gather bounding boxes to rank 0,
            # write the spatial metadata, then the manifest as the marker.
            with rec.span(PHASE_METADATA):
                gathered = comm.gather((local_records, local_checksums))
                if gathered is not None:
                    new_records = [r for recs, _sums in gathered for r in recs]
                    base_records = list(commit.base_records) if commit else []
                    records = sorted(
                        base_records + new_records, key=lambda r: r.box_id
                    )
                    checksums: dict[str, dict] = (
                        dict(commit.base_checksums) if commit else {}
                    )
                    for _recs, sums in gathered:
                        checksums.update(sums)
                    table = SpatialMetadata(records, attr_names=cfg.attr_index)
                    meta_blob = table.to_bytes()
                    self.retry.call(
                        backend.write_file,
                        generation_meta_path(gen) if commit else META_PATH,
                        meta_blob,
                        actor=0,
                        recorder=rec,
                    )
                    manifest = Manifest(
                        dtype=batch.dtype,
                        num_files=len(records),
                        total_particles=table.total_particles,
                        lod_base=cfg.lod_base,
                        lod_scale=cfg.lod_scale,
                        lod_heuristic=cfg.lod_heuristic,
                        lod_seed=cfg.lod_seed,
                        writer={
                            "config": cfg.describe(),
                            "nprocs": comm.size,
                            "proc_dims": list(decomp.proc_dims),
                            "domain": {
                                "lo": decomp.domain.lo.tolist(),
                                "hi": decomp.domain.hi.tolist(),
                            },
                        },
                        checksums=checksums,
                        spatial_meta_crc32=table_crc32(meta_blob),
                        generation=gen,
                        parent=commit.parent if commit else None,
                    )
                    self.retry.call(
                        backend.write_file,
                        generation_manifest_path(gen) if commit else MANIFEST_PATH,
                        manifest.to_json().encode("utf-8"),
                        actor=0,
                        recorder=rec,
                    )
                    if commit is not None:
                        # The commit point: flipping CURRENT publishes the
                        # new generation atomically.  Everything before this
                        # write is invisible to readers; a crash before it
                        # recovers to the parent generation.
                        self.retry.call(
                            write_current, backend, gen, actor=0, recorder=rec
                        )
                        rec.add(GEN_COMMITS)
                        rec.event(
                            EV_GENERATION_COMMIT,
                            generation=gen,
                            parent=commit.parent,
                            new_files=len(new_records),
                        )
        except BaseException:
            self._abort(backend, result)
            raise
        return result

    def _abort(self, backend: FileBackend, result: WriteResult) -> None:
        """Best-effort removal of this rank's partial output.

        Idempotent (``missing_ok``) and tolerant of a dead backend — after a
        real crash there is nobody left to clean up, and the two-phase
        ordering already guarantees the dataset reads as incomplete.
        """
        for path in result.files_written:
            try:
                backend.delete(path, missing_ok=True)
            except BackendError:
                pass

    # -- helpers ------------------------------------------------------------------

    def _attr_ranges(self, batch: ParticleBatch) -> dict[str, tuple[float, float]]:
        """Per-attribute (min, max) for the metadata index.

        An empty file gets ``(+inf, -inf)`` so that no range query ever
        matches it — the natural identity for a min/max interval.
        """
        out: dict[str, tuple[float, float]] = {}
        for name in self.config.attr_index:
            if name not in (batch.dtype.names or ()):
                raise ConfigError(
                    f"attr_index names {name!r}, not a field of {batch.dtype}"
                )
            if len(batch):
                col = np.asarray(batch.data[name], dtype=np.float64)
                out[name] = (float(col.min()), float(col.max()))
            else:
                out[name] = (float("inf"), float("-inf"))
        return out
