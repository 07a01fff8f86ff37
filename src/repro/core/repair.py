"""Self-healing datasets: turn a :class:`~repro.core.scrub.ScrubReport` into
an executed repair.

The v3 data-file format makes every file self-describing (see
:class:`~repro.format.datafile.RecoveryTrailer`): each one redundantly
carries its own ``spatial.meta`` record, manifest checksum entry, dtype
descr and LOD parameters.  This module is the consumer of that redundancy —
given a scrubbed dataset it classifies every issue into a typed
:class:`RepairAction` and executes the plan through the same machinery the
writer uses (two-phase commit, :class:`~repro.io.retry.RetryPolicy`,
per-file fan-out on the dataset's :class:`~repro.io.executor.IoExecutor`).

Strategy per issue, keyed off :attr:`ScrubIssue.repairable`:

* **lossless rebuild** (``repairable=True``) — ``spatial.meta`` and
  ``manifest.json`` are derived state; when lost, corrupt, or disagreeing
  with the data files they are rebuilt from the recovery trailers (the
  rebuild is bit-identical to what the writer produced, so a surviving
  manifest's ``spatial_meta_crc32`` still matches).  A damaged trailer is
  itself rewritten from the surviving committed state.
* **salvage** (``repairable=False``) — a torn data file is truncated to its
  longest prefix that still verifies against the manifest's per-LOD prefix
  checksums; because files are LOD-ordered, that prefix *is* a valid coarse
  level, so strict reads keep working at reduced fidelity.
* **quarantine** — anything unrecoverable (bad payload CRC, dtype mismatch,
  torn beyond the first prefix boundary, orphans of an aborted overwrite)
  is moved into ``quarantine/`` rather than deleted, and dropped from the
  rebuilt metadata.

Every repair records ``repair.*`` spans (scrub / plan / execute / verify),
one ``repair.action`` event per executed action, and salvaged/lost
particle counters on the dataset's recorder.  ``dry_run=True`` stops after
planning — no byte is written (asserted in the test suite against the
virtual backend's op log).

Series-level recovery (:func:`repair_series`) treats ``series.json`` as the
commit marker above the per-step markers: indexed steps are repaired in
place; a step directory absent from the index is an aborted append and is
quarantined whole.  The index itself carries the simulation times, which no
trailer duplicates, so a corrupt index is reported as unresolved rather
than guessed at.
"""

from __future__ import annotations

import re
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.scrub import QUARANTINE_DIR, ScrubReport, verify_columnar
from repro.dataset import Dataset, as_dataset
from repro.errors import (
    BackendError,
    ChecksumError,
    DataFileError,
    FormatError,
    MetadataError,
)
from repro.format.generations import (
    CURRENT_PATH,
    ResolvedGeneration,
    generation_manifest_path,
    generation_meta_path,
    list_generations,
    load_generation,
    parse_generation_path,
    read_current,
    resolve_generation,
    write_current,
)
from repro.format.chunks import FileChunkIndex, build_chunk_entry
from repro.format.datafile import (
    DATA_VERSION_COLUMNAR,
    FOOTER_BYTES,
    HEADER_BYTES,
    RecoveryTrailer,
    build_data_blob,
    columnar_payload_length,
    decode_columnar_payload,
    extract_recovery_trailer,
    parse_data_header,
    payload_prefix_checksums,
    prefix_checksum_boundaries,
    verify_data_footer,
)
from repro.format.manifest import (
    MANIFEST_PATH,
    Manifest,
    descr_to_dtype,
    dtype_to_descr,
)
from repro.format.metadata import (
    META_PATH,
    MetadataRecord,
    SpatialMetadata,
)
from repro.io.backend import FileBackend
from repro.obs.names import (
    EV_REPAIR_ACTION,
    PHASE_REPAIR_EXECUTE,
    PHASE_REPAIR_PLAN,
    PHASE_REPAIR_SCRUB,
    PHASE_REPAIR_VERIFY,
    REPAIR_ACTIONS,
    REPAIR_FILES_QUARANTINED,
    REPAIR_PARTICLES_LOST,
    REPAIR_PARTICLES_SALVAGED,
)
from repro.obs.recorder import Recorder

__all__ = [
    "QUARANTINE_DIR",
    "RepairAction",
    "RepairReport",
    "SeriesRepairReport",
    "repair_dataset",
    "repair_series",
]

#: Unrecoverable pieces are moved to ``QUARANTINE_DIR`` (defined in
#: :mod:`repro.core.scrub`, re-exported here), never deleted — a later
#: forensic pass can still look at them.

#: Action kinds, in the order :meth:`RepairReport.summary_lines` groups them.
ACTION_REBUILD_METADATA = "rebuild-metadata-from-trailers"
ACTION_REBUILD_MANIFEST = "rebuild-manifest"
ACTION_REBUILD_ENTRY = "rebuild-manifest-entry"
ACTION_REWRITE_TRAILER = "rewrite-trailer"
ACTION_TRUNCATE = "truncate-torn-file"
ACTION_DROP_MISSING = "drop-missing-file"
ACTION_QUARANTINE = "quarantine-unrecoverable"
ACTION_REWRITE_CURRENT = "rewrite-current-pointer"
ACTION_DROP_GENERATION = "drop-generation"


@dataclass
class RepairAction:
    """One planned (and possibly executed) repair step."""

    kind: str
    path: str
    detail: str
    particles_salvaged: int = 0
    particles_lost: int = 0
    #: False until the execute phase actually performed it (always False
    #: after a dry run).
    executed: bool = False

    def describe(self) -> str:
        extra = ""
        if self.particles_salvaged or self.particles_lost:
            extra = (
                f" (salvaged {self.particles_salvaged}, "
                f"lost {self.particles_lost})"
            )
        return f"[{self.kind}] {self.path}: {self.detail}{extra}"


@dataclass
class RepairReport:
    """Everything one repair pass decided and did."""

    actions: list[RepairAction] = field(default_factory=list)
    dry_run: bool = False
    #: The scrub found nothing; repair had nothing to do.
    clean: bool = False
    rebuilt_metadata: bool = False
    rebuilt_manifest: bool = False
    #: Damage repair could not act on (human-readable reasons).
    unresolved: list[str] = field(default_factory=list)
    #: Issues the post-repair verification scrub still found.
    issues_remaining: list[str] = field(default_factory=list)

    @property
    def particles_salvaged(self) -> int:
        return sum(a.particles_salvaged for a in self.actions)

    @property
    def particles_lost(self) -> int:
        return sum(a.particles_lost for a in self.actions)

    @property
    def files_quarantined(self) -> int:
        return sum(1 for a in self.actions if a.kind == ACTION_QUARANTINE)

    @property
    def data_loss(self) -> bool:
        """True when converging cost particles (quarantined orphans of an
        aborted overwrite were never committed data, so they do not count)."""
        return self.particles_lost > 0

    @property
    def ok(self) -> bool:
        """The dataset verifies clean after this pass (vacuously for a
        dataset that was already clean)."""
        if self.clean:
            return True
        return not self.dry_run and not self.unresolved and not self.issues_remaining

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean/lossless repair, 1 damage (found or
        repaired with data loss), 2 never (operational errors raise)."""
        if self.clean:
            return 0
        if self.dry_run:
            return 1
        return 0 if self.ok and not self.data_loss else 1

    def summary_lines(self) -> list[str]:
        """Human-readable report (the ``repro repair`` output body)."""
        verb = "planned " if self.dry_run else "executed"
        lines = [f"actions {verb} : {len(self.actions)}"]
        lines.extend(f"  {a.describe()}" for a in self.actions)
        lines += [
            f"particles salvaged: {self.particles_salvaged}",
            f"particles lost    : {self.particles_lost}",
            f"files quarantined : {self.files_quarantined}",
            f"metadata rebuilt  : {'yes' if self.rebuilt_metadata else 'no'}",
            f"manifest rebuilt  : {'yes' if self.rebuilt_manifest else 'no'}",
        ]
        lines.extend(f"unresolved: {reason}" for reason in self.unresolved)
        lines.extend(f"still damaged: {issue}" for issue in self.issues_remaining)
        if self.clean:
            lines.append("dataset is clean; nothing to repair")
        elif self.dry_run:
            lines.append("dry run: no changes were made")
        elif not self.ok:
            lines.append("repair incomplete: restore from a replica")
        elif self.data_loss:
            lines.append(
                f"dataset repaired with data loss "
                f"({self.particles_lost} particles unrecoverable)"
            )
        else:
            lines.append("dataset repaired without data loss")
        return lines


# -- per-file inspection -------------------------------------------------------


@dataclass
class _FileState:
    """What one pass over a data file's bytes established."""

    path: str
    #: One of ``missing``, ``unreadable``, ``corrupt``, ``torn``, ``valid``.
    status: str = "missing"
    detail: str = ""
    version: int = 0
    rec_size: int = 0
    header_count: int = 0
    payload_crc32: int = 0
    trailer: RecoveryTrailer | None = None
    trailer_detail: str = ""
    #: Checksum entry recomputed from the payload (valid files, LOD known).
    actual_entry: dict | None = None
    #: Longest prefix (in particles) verifying against the manifest entry.
    salvage_count: int = 0
    salvage_crc: int = 0
    salvage_prefixes: list = field(default_factory=list)
    #: Columnar (v4) facts: the segment codec (None marks a row file) and,
    #: after salvage, the kept segment-bearing chunks as a table section.
    codec: str | None = None
    keep_section: bytes = b""


def _inspect_file(
    ds: Dataset,
    path: str,
    entry: dict | None,
    dtype,
    lod: tuple[int, int] | None,
    rec: Recorder,
    attr_names: tuple[str, ...] | None = None,
    chunk_size_hint: int = 0,
) -> _FileState:
    """Classify one data file from its raw bytes; never raises.

    ``entry`` is the :func:`_committed_entry` (drives torn-file salvage),
    ``dtype`` the dataset record dtype (guards dtype mismatches and lets a
    chunk index be recomputed from the payload), ``lod`` the (base, scale)
    pair for recomputing prefix checksums, ``attr_names`` the indexed
    attribute order — each ``None`` when the dataset-level state carrying
    it did not survive.  ``chunk_size_hint`` is a dataset-wide fallback
    (the writer's chunk size is identical across files) applied when
    neither the entry nor the file's own trailer records an index.
    """
    itemsize = dtype.itemsize if dtype is not None else None
    st = _FileState(path)
    try:
        if not ds.backend.exists(path):
            st.detail = "referenced by spatial.meta but absent"
            return st
        raw = bytes(ds.retry.call(ds.backend.read_file, path, recorder=rec))
    except BackendError as exc:
        st.status, st.detail = "unreadable", str(exc)
        return st

    try:
        st.version, st.rec_size, st.header_count = parse_data_header(raw, path)
    except DataFileError as exc:
        st.status, st.detail = "corrupt", str(exc)
        return st
    if itemsize is not None and st.rec_size != itemsize:
        st.status = "corrupt"
        st.detail = (
            f"record size {st.rec_size} does not match dataset itemsize "
            f"{itemsize}"
        )
        return st
    if st.rec_size <= 0:
        st.status, st.detail = "corrupt", f"record size {st.rec_size}"
        return st

    if st.version >= DATA_VERSION_COLUMNAR:
        return _inspect_columnar(st, raw, entry, dtype, lod, attr_names)

    footer = FOOTER_BYTES if st.version >= 2 else 0
    expected = HEADER_BYTES + st.header_count * st.rec_size + footer
    torn = (
        len(raw) < expected if st.version >= 3 else len(raw) != expected
    )
    if torn:
        st.status = "torn"
        st.detail = (
            f"expected {expected} bytes for {st.header_count} particles, "
            f"found {len(raw)}"
        )
        _find_salvage_prefix(st, raw, entry)
        return st

    body = raw[:expected]
    payload = body[HEADER_BYTES : expected - footer]
    st.payload_crc32 = zlib.crc32(payload)
    if st.version >= 2:
        try:
            verify_data_footer(body, path)
        except ChecksumError as exc:
            st.status, st.detail = "corrupt", str(exc)
            return st
    st.status = "valid"

    if st.version >= 3:
        _load_trailer(st, raw)

    if lod is None and st.trailer is not None:
        lod = (st.trailer.lod_base, st.trailer.lod_scale)
    if dtype is None:
        # The dtype is a dataset-wide fact the trailer carries too; without
        # it the chunk index below cannot be recomputed and a healthy
        # trailer would spuriously "disagree" with a chunkless entry.
        dtype = _trailer_dtype(st)
    if lod is not None:
        boundaries = prefix_checksum_boundaries(st.header_count, *lod)
        prefixes = payload_prefix_checksums(payload, st.rec_size, boundaries)
        st.actual_entry = {
            "payload_crc32": st.payload_crc32,
            "prefixes": [[c, crc] for c, crc in prefixes],
        }
        # Chunk index: the grid is fully determined by the payload, the LOD
        # boundaries, and the chunk size (recovered from whichever recorded
        # index survives), so a clean one rebuilds bit-identically and a
        # damaged one is replaced by the truth.  Unchunked datasets have no
        # donor and stay unchunked.
        chunk_size = _donor_chunk_size(entry, st.trailer) or chunk_size_hint
        if chunk_size and dtype is not None and st.header_count:
            if attr_names is None and st.trailer is not None:
                attr_names = st.trailer.attr_names
            from repro.particles.batch import ParticleBatch

            st.actual_entry["section"] = build_chunk_entry(
                ParticleBatch.frombuffer(payload, dtype),
                chunk_size,
                boundaries,
                tuple(attr_names or ()),
            ).to_section()
    return st


def _load_trailer(st: _FileState, raw: bytes) -> None:
    """Set ``st.trailer`` from the file image's recovery trailer, or record
    in ``st.trailer_detail`` why it is unusable."""
    try:
        trailer = extract_recovery_trailer(raw, st.path)
    except (ChecksumError, DataFileError) as exc:
        st.trailer_detail = str(exc)
        return
    if trailer.record.particle_count != st.header_count:
        st.trailer_detail = (
            f"trailer says {trailer.record.particle_count} particles, "
            f"header says {st.header_count}"
        )
        return
    st.trailer = trailer


def _trailer_dtype(st: _FileState):
    """The dataset dtype as ``st``'s trailer records it, when it parses and
    matches the header's record size; else None."""
    if st.trailer is None:
        return None
    try:
        dtype = descr_to_dtype(st.trailer.dtype_descr)
    except FormatError:
        return None
    return dtype if dtype.itemsize == st.rec_size else None


def _inspect_columnar(
    st: _FileState,
    raw: bytes,
    entry: dict | None,
    dtype,
    lod: tuple[int, int] | None,
    attr_names: tuple[str, ...] | None,
) -> _FileState:
    """Classify a columnar (v4) file from its raw bytes.

    Verification runs at *segment* granularity against the first recorded
    copy of the chunk index (the trailer's, then the table's) under which
    the file verifies (:func:`~repro.core.scrub.verify_columnar`), and a
    file with damaged or missing tail segments is treated as torn — salvage
    keeps whole leading chunks up to the longest LOD boundary whose decoded
    logical prefix still verifies.  A valid file gets a recomputed v4
    checksum entry (encoded-payload CRC, logical prefix CRCs, segment-bearing
    section, codec).
    """
    _load_trailer(st, raw)
    copies = []
    if st.trailer is not None:
        copies.append((st.trailer.record.section, st.trailer.codec))
    if entry and entry.get("section"):
        copies.append((entry["section"], entry.get("codec")))
    if not any(section for section, _codec in copies):
        if entry is None:
            # Nothing ever recorded this file (aborted-write orphan cut
            # before its trailer): torn with nothing salvageable, so it
            # quarantines without billing the header count as data loss —
            # same accounting as a row orphan.
            st.status = "torn"
            st.detail = (
                "columnar file has no usable segment descriptors "
                "(torn before its recovery trailer)"
            )
            return st
        st.status = "corrupt"
        st.detail = (
            "columnar file has no usable segment descriptors "
            "(recovery trailer and table section both lost)"
        )
        return st
    if dtype is None:
        dtype = _trailer_dtype(st)
    if dtype is None:
        st.status = "corrupt"
        st.detail = (
            "columnar file cannot be verified without a dtype and none "
            "survives (manifest and trailer both lost)"
        )
        return st
    if lod is None and st.trailer is not None:
        lod = (st.trailer.lod_base, st.trailer.lod_scale)
    check = verify_columnar(raw, copies, st.header_count, dtype, st.path)
    st.codec = check.codec
    if check.rows is None:
        if check.index is not None and check.code in ("data-truncated", "segment-checksum"):
            st.status = "torn"
            st.detail = check.details[0]
            if check.code == "segment-checksum":
                st.detail = (
                    f"{len(check.details)} damaged column segment(s); "
                    f"first: {check.details[0]}"
                )
            _find_columnar_salvage(st, raw, entry, dtype, check.index, check.codec)
        else:
            st.status, st.detail = "corrupt", check.details[0]
        return st
    st.status = "valid"
    st.payload_crc32 = zlib.crc32(raw[HEADER_BYTES : HEADER_BYTES + check.enc_len])
    if lod is None:
        return st
    boundaries = prefix_checksum_boundaries(st.header_count, *lod)
    prefixes = payload_prefix_checksums(
        np.ascontiguousarray(check.rows).tobytes(), st.rec_size, boundaries
    )
    st.actual_entry = {
        "payload_crc32": st.payload_crc32,
        "prefixes": [[c, crc] for c, crc in prefixes],
        "codec": check.codec,
    }
    if attr_names is None and st.trailer is not None:
        attr_names = st.trailer.attr_names
    # Regraft the chunk geometry from the decoded payload (the truth) and
    # keep the verified stored segment descriptors — same partition, so
    # they line up one-to-one.  A geometry whose partition no longer
    # matches keeps the stored index wholesale (it verified byte-level).
    from repro.particles.batch import ParticleBatch

    stored = check.index
    assert stored is not None  # a verified file verified against an index
    geo = build_chunk_entry(
        ParticleBatch(check.rows), int(stored.counts.max()), boundaries,
        tuple(attr_names or ()),
    )
    if np.array_equal(geo.starts, stored.starts) and np.array_equal(
        geo.counts, stored.counts
    ):
        geo.segments = stored.segments
        stored = geo
    st.actual_entry["section"] = stored.to_section()
    return st


def _find_columnar_salvage(
    st: _FileState,
    raw: bytes,
    entry: dict | None,
    dtype,
    index: FileChunkIndex,
    codec: str,
) -> None:
    """Salvage for a torn/segment-damaged v4 file: keep whole leading
    chunks whose segments all verify and decode, up to the longest
    recorded LOD boundary whose decoded logical prefix CRC matches.
    Chunks never straddle LOD boundaries, so every recorded boundary is
    chunk-aligned and the kept encoded bytes are a payload prefix whose
    segment offsets stay valid."""
    eff = entry
    if eff is None and st.trailer is not None:
        eff = st.trailer.checksum_entry
    if eff is None:
        return
    payload = raw[HEADER_BYTES:]
    parts = []
    for k in range(len(index)):
        try:
            parts.append(
                decode_columnar_payload(payload, index[k : k + 1], codec, dtype, st.path)
            )
        except (ChecksumError, DataFileError):
            break
    good = int(index.counts[: len(parts)].sum())
    if not good:
        return
    logical = np.concatenate(parts).tobytes()
    crc, pos, kept = 0, 0, 0
    prefixes = []
    for count, stored in eff.get("prefixes", []):
        count, stored = int(count), int(stored)
        if count > good:
            break
        crc = zlib.crc32(
            logical[pos * st.rec_size : count * st.rec_size], crc
        )
        pos = count
        if crc != stored:
            break
        kept = count
        prefixes.append([count, crc])
    ends = np.cumsum(index.counts)
    k = int(np.searchsorted(ends, kept)) + 1
    if not kept or ends[k - 1] != kept:
        return  # nothing verifies, or a boundary not chunk-aligned
    st.salvage_count = kept
    st.salvage_crc = zlib.crc32(payload[: columnar_payload_length(index[:k])])
    st.salvage_prefixes = prefixes
    st.keep_section = index[:k].to_section()


def _find_salvage_prefix(st: _FileState, raw: bytes, entry: dict | None) -> None:
    """Longest prefix of a torn file that verifies against the manifest's
    per-LOD prefix checksums.  Levels-are-subsets makes that prefix a valid
    coarse representation — exactly what truncation keeps."""
    if entry is None:
        return
    avail = max(0, len(raw) - HEADER_BYTES) // st.rec_size
    crc, pos = 0, 0
    for count, stored in entry.get("prefixes", []):
        count, stored = int(count), int(stored)
        if count > avail:
            break
        crc = zlib.crc32(
            raw[HEADER_BYTES + pos * st.rec_size : HEADER_BYTES + count * st.rec_size],
            crc,
        )
        pos = count
        if crc != stored:
            break
        st.salvage_count, st.salvage_crc = count, crc
        st.salvage_prefixes.append([count, crc])


# -- planning ------------------------------------------------------------------


@dataclass
class _RepairPlan:
    """What the execute phase will do, fully decided before any write."""

    actions: list[RepairAction] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    rebuild_metadata: bool = False
    rebuild_manifest: bool = False
    invalidate_marker: bool = False
    meta_blob: bytes | None = None
    manifest: Manifest | None = None
    #: the generation this repair converges the dataset to; decides which
    #: manifest/meta paths are rewritten and what the commit marker is.
    target: ResolvedGeneration = field(
        default_factory=lambda: ResolvedGeneration(0)
    )
    #: rewrite CURRENT to this generation after everything else landed
    #: (None = classic single-manifest dataset, no pointer).
    write_current_gen: int | None = None
    #: dropped generation -> its unique data files (quarantined, never
    #: shared with a retained generation).
    drop_files: dict[int, list[str]] = field(default_factory=dict)
    #: stray chain state deleted outright (dropped gen manifests/meta,
    #: residue meta without a manifest, stray CURRENT on a gen-0 dataset).
    delete_paths: list[str] = field(default_factory=list)
    #: path -> (salvage_count, rec_size) for truncations.
    truncate: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: path -> (count, rec_size) for full-payload trailer rewrites.
    rewrite: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: path -> fresh trailer for truncate/rewrite targets.
    trailers: dict[str, RecoveryTrailer] = field(default_factory=dict)


def _committed_entry(
    manifest: Manifest | None, ref: MetadataRecord | None, path: str
) -> dict | None:
    """One file's manifest checksum entry plus, as ``section``, the chunk
    index its table record carries (when that section frames; an
    unframeable one is regrafted from the payload)."""
    entry = manifest.checksums.get(path) if manifest is not None else None
    if entry is None:
        return None
    entry = dict(entry)
    with suppress(DataFileError):
        if ref is not None:
            FileChunkIndex.unpack(ref.section, path)
            entry["section"] = ref.section
    return entry


def _norm_entry(entry: dict | None) -> dict | None:
    if entry is None:
        return None
    out = {
        "payload_crc32": int(entry.get("payload_crc32", -1)),
        "prefixes": [[int(c), int(crc)] for c, crc in entry.get("prefixes", [])],
    }
    if entry.get("section"):
        out["section"] = entry["section"]
    if entry.get("codec") is not None:
        out["codec"] = str(entry["codec"])
    return out


def _donor_chunk_size(entry: dict | None, trailer: RecoveryTrailer | None) -> int:
    """Recover the writer's chunk size from whichever recorded index
    survives and still tiles (the grid is regular, so the largest chunk IS
    the chunk size); 0 when none does — the dataset was written unchunked,
    or every recorded copy is damaged."""
    sections = [entry.get("section", b"") if entry else b""]
    if trailer is not None:
        sections.append(trailer.record.section)
    for section in sections:
        try:
            index = FileChunkIndex.unpack(section)
            index.validated(index.total_particles)
        except DataFileError:
            continue
        if len(index):
            return int(index.counts.max())
    return 0


def _natural_key(path: str) -> tuple:
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", path)
    )


def _plan(ds: Dataset, report: ScrubReport) -> _RepairPlan:
    """Decide every action from surviving state; performs reads only.

    The scrub report drives the plan twice over: its issue list scopes the
    per-file inspection (when the dataset-level state survived intact, only
    files the scrub flagged are re-read — a clean file's record and
    checksum entry carry over untouched), and its ``repairable`` tags pick
    the strategy — tagged issues resolve through lossless rebuilds from
    trailers or committed state, untagged ones through salvage truncation
    or quarantine.  Every decision is still re-verified against the actual
    bytes here — the plan trusts what it inspected, not what the scrub
    remembered.
    """
    plan = _RepairPlan()
    backend = ds.backend

    # Which generation does this repair converge to?  The resolver's own
    # discipline picks it (valid CURRENT first, else the newest fully
    # verifiable generation); when nothing verifies at all, fall back to
    # the newest generation present and rebuild it from trailers.
    try:
        target = resolve_generation(backend, actor=ds.actor)
    except FormatError:
        target = ResolvedGeneration(
            max(list_generations(backend), default=0),
            fallback=True,
            detail="no generation fully verifies; rebuilding the newest",
        )
    # The resolver only falls back to generations it can READ — but repair
    # can do better: when a valid CURRENT names a newer generation whose
    # spatial table still parses, the committed data survives even though
    # the manifest is damaged.  Rebuild that generation in place instead of
    # abandoning the committed append.
    if target.fallback:
        try:
            pointed = read_current(backend, actor=ds.actor)
        except FormatError:
            pointed = None
        if pointed is not None and pointed > target.generation:
            try:
                SpatialMetadata.read(
                    backend, generation_meta_path(pointed), actor=ds.actor
                )
            except (BackendError, FormatError):
                pass
            else:
                target = ResolvedGeneration(
                    pointed,
                    fallback=True,
                    detail=(
                        f"CURRENT names generation {pointed}; its table "
                        "survives, rebuilding the manifest in place"
                    ),
                )
    plan.target = target
    manifest_path, meta_path = target.manifest_path, target.meta_path

    # Generations the scrub condemned (crashed appends that never flipped
    # CURRENT, chained state that fails verification, lying filenames) are
    # dropped: their manifest/meta deleted, their unique files quarantined.
    _DROP_REASONS = {
        "generation-ahead": "crashed before its CURRENT flip (never committed)",
        "generation-damaged": "fails verification and is not the repair target",
        "generation-mismatch": "embedded generation contradicts its filename",
    }
    drop_reasons: dict[int, str] = {}
    for issue in report.issues:
        reason = _DROP_REASONS.get(issue.code)
        parsed = parse_generation_path(issue.path)
        if reason is None or parsed is None:
            continue
        gen = parsed[1]
        if gen != target.generation:
            drop_reasons.setdefault(gen, reason)
    drop_gens = sorted(drop_reasons)
    dropped_ns = tuple(f"g{g}_" for g in drop_gens)
    current_damaged = any(
        issue.code in ("current-corrupt", "current-missing", "current-dangling")
        for issue in report.issues
    )

    # Surviving dataset-level state, each piece probed independently.
    manifest: Manifest | None = None
    if backend.exists(manifest_path):
        try:
            manifest = Manifest.read(backend, manifest_path, actor=ds.actor)
        except FormatError:
            manifest = None
    metadata: SpatialMetadata | None = None
    raw_meta: bytes | None = None
    if backend.exists(meta_path):
        try:
            raw_meta = bytes(backend.read_file(meta_path))
            metadata = SpatialMetadata.from_bytes(raw_meta)
        except (BackendError, FormatError):
            metadata = None

    ref_records = (
        {r.file_path: r for r in metadata.records} if metadata is not None else {}
    )

    # Files referenced only by OTHER retained generations (e.g. the
    # pre-compaction inputs an old generation still serves to pinned
    # readers) are foreign to this target: not inventory, not orphans.
    foreign: set[str] = set()
    for gen in list_generations(backend):
        if gen == target.generation or gen in drop_reasons:
            continue
        try:
            _m, other_meta = load_generation(backend, gen)
        except FormatError:
            continue
        foreign.update(r.file_path for r in other_meta.records)
    if manifest is not None:
        foreign -= set(manifest.checksums)
    foreign -= set(ref_records)

    paths = set(ref_records)
    try:
        names = backend.listdir("data")
    except BackendError:
        names = []
    paths.update(
        f"data/{n}"
        for n in names
        if not n.startswith(".")
        and f"data/{n}" not in foreign
        and not (dropped_ns and n.startswith(dropped_ns))
    )
    ordered_paths = sorted(paths, key=_natural_key)

    known_dtype = manifest.dtype if manifest is not None else None
    lod = (manifest.lod_base, manifest.lod_scale) if manifest is not None else None
    known_attrs = metadata.attr_names if metadata is not None else None

    # Scope the inspection from the scrub report: with both dataset-level
    # pieces intact and no cross-check complaints, only flagged files need
    # their bytes re-read — everything else carries over verbatim.
    issue_paths = {issue.path for issue in report.issues}
    dataset_level_damage = (
        manifest is None
        or metadata is None
        or manifest_path in issue_paths
        or meta_path in issue_paths
    )
    inspect_paths = (
        ordered_paths
        if dataset_level_damage
        else [p for p in ordered_paths if p in issue_paths]
    )

    # Fan the per-file byte inspection out on the dataset's executor;
    # children merge back in submission order (executor-independent).
    tasks = [
        (
            lambda child, p=path: _inspect_file(
                ds,
                p,
                _committed_entry(manifest, ref_records.get(p), p),
                known_dtype,
                lod,
                child,
                attr_names=known_attrs,
            )
        )
        for path in inspect_paths
    ]
    states: dict[str, _FileState] = {}
    for outcome in ds.executor.run(tasks, ds.recorder):
        if outcome.recorder is not None:
            ds.recorder.merge(outcome.recorder)
        if outcome.error is not None:
            raise outcome.error
        states[outcome.value.path] = outcome.value

    trailers = [
        states[p].trailer
        for p in inspect_paths
        if states[p].trailer is not None
    ]
    if metadata is None and not trailers:
        plan.unresolved.append(
            "spatial.meta is lost and no data file carries a readable "
            "recovery trailer (pre-v3 dataset?) — cannot rebuild"
        )
        return plan
    if manifest is None and not trailers:
        plan.unresolved.append(
            "manifest.json is lost and no data file carries a readable "
            "recovery trailer (pre-v3 dataset?) — cannot rebuild"
        )
        return plan

    # Dataset-wide facts: from the manifest when it survived, else from the
    # trailers (identical across all files of one dataset by construction).
    donor = trailers[0] if trailers else None
    if manifest is not None:
        dtype = manifest.dtype
        lod_params = (
            manifest.lod_base,
            manifest.lod_scale,
            manifest.lod_heuristic,
            manifest.lod_seed,
        )
        writer_prov = manifest.writer
    else:
        assert donor is not None
        try:
            dtype = descr_to_dtype(donor.dtype_descr)
        except FormatError as exc:
            plan.unresolved.append(f"recovery trailer has a bad dtype: {exc}")
            return plan
        lod_params = (
            donor.lod_base,
            donor.lod_scale,
            donor.lod_heuristic,
            donor.lod_seed,
        )
        writer_prov = {"provenance": "rebuilt by repro repair"}
    descr = dtype_to_descr(dtype)

    # Second pass: a structurally valid file whose own trailer is
    # unreadable while the manifest is also lost could not recompute its
    # checksum entry above — the first inspection had no LOD parameters to
    # derive prefix boundaries from.  Those facts are dataset-wide, so once
    # a donor trailer establishes them the intact payload derives the entry
    # after all; re-inspect with the recovered dtype, LOD pair, attribute
    # order and chunk size.
    second_pass = [
        p
        for p in inspect_paths
        if states[p].status == "valid" and states[p].actual_entry is None
    ]
    if second_pass:
        donor_attrs = known_attrs
        if donor_attrs is None and donor is not None:
            donor_attrs = donor.attr_names
        chunk_hint = 0
        for p in inspect_paths:
            chunk_hint = _donor_chunk_size(
                _committed_entry(manifest, ref_records.get(p), p),
                states[p].trailer,
            )
            if chunk_hint:
                break
        for p in second_pass:
            states[p] = _inspect_file(
                ds,
                p,
                _committed_entry(manifest, ref_records.get(p), p),
                dtype,
                (lod_params[0], lod_params[1]),
                ds.recorder,
                attr_names=donor_attrs,
                chunk_size_hint=chunk_hint,
            )

    records: list[MetadataRecord] = []
    checksums: dict[str, dict] = {}
    adopted = 0

    def add(kind: str, path: str, detail: str, salvaged: int = 0, lost: int = 0):
        plan.actions.append(RepairAction(kind, path, detail, salvaged, lost))

    def keep(record: MetadataRecord, entry: dict | None) -> None:
        # The section goes back into the record; the manifest entry keeps
        # the file-level checksums and codec only.
        if entry is not None:
            entry = dict(entry)
            record = replace(record, section=entry.pop("section", b""))
            checksums[record.file_path] = entry
        records.append(record)

    def want_trailer(record: MetadataRecord, entry: dict) -> RecoveryTrailer:
        return RecoveryTrailer(
            replace(record, section=entry.get("section", b"")),
            payload_crc32=int(entry["payload_crc32"]),
            prefixes=tuple((int(c), int(crc)) for c, crc in entry["prefixes"]),
            codec=entry.get("codec"),
            dtype_descr=descr,
            lod_base=lod_params[0],
            lod_scale=lod_params[1],
            lod_heuristic=lod_params[2],
            lod_seed=lod_params[3],
        )

    for path in ordered_paths:
        ref = ref_records.get(path)
        if path not in states:
            # Scrub found nothing wrong with this file; carry its committed
            # record and checksum entry over untouched.
            assert ref is not None and manifest is not None
            keep(ref, _norm_entry(_committed_entry(manifest, ref, path)))
            continue
        st = states[path]

        if st.status == "missing":
            assert ref is not None  # inventory only adds existing files
            add(
                ACTION_DROP_MISSING,
                path,
                "referenced data file is gone; dropping its record",
                lost=ref.particle_count,
            )
            continue

        if st.status == "unreadable":
            # Cannot even copy it aside; leave it in place and report.
            plan.unresolved.append(f"{path}: unreadable ({st.detail})")
            if ref is not None:
                keep(ref, _norm_entry(_committed_entry(manifest, ref, path)))
            continue

        if st.status == "corrupt":
            add(
                ACTION_QUARANTINE,
                path,
                st.detail,
                lost=ref.particle_count if ref is not None else st.header_count,
            )
            continue

        if st.status == "torn":
            if ref is not None and st.salvage_count > 0:
                record = MetadataRecord(
                    box_id=ref.box_id,
                    agg_rank=ref.agg_rank,
                    particle_count=st.salvage_count,
                    bounds=ref.bounds,
                    attr_ranges=dict(ref.attr_ranges),
                    gen=ref.gen,
                )
                entry = {
                    "payload_crc32": st.salvage_crc,
                    "prefixes": list(st.salvage_prefixes),
                }
                if st.codec is not None:
                    # v4 salvage keeps whole chunks: the truncated file's
                    # entry carries the surviving segment descriptors and
                    # the codec, so it stays a self-describing columnar
                    # file at reduced fidelity.
                    entry["section"] = st.keep_section
                    entry["codec"] = st.codec
                plan.truncate[path] = (st.salvage_count, st.rec_size)
                plan.trailers[path] = want_trailer(record, entry)
                keep(record, entry)
                add(
                    ACTION_TRUNCATE,
                    path,
                    f"{st.detail}; keeping the longest checksum-verified "
                    f"LOD prefix",
                    salvaged=st.salvage_count,
                    lost=ref.particle_count - st.salvage_count,
                )
            else:
                add(
                    ACTION_QUARANTINE,
                    path,
                    st.detail
                    + ("; no prefix verifies" if ref is not None else "; no record"),
                    lost=ref.particle_count if ref is not None else 0,
                )
            continue

        # -- structurally valid file ---------------------------------------
        if ref is None and metadata is not None:
            add(
                ACTION_QUARANTINE,
                path,
                "not referenced by spatial.meta (aborted-write orphan)",
            )
            continue

        if ref is None:
            # Metadata is being rebuilt; adopt the record from the trailer.
            if st.trailer is None:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"spatial.meta lost and no usable trailer "
                    f"({st.trailer_detail or 'none present'})",
                    lost=st.header_count,
                )
                continue
            record = st.trailer.record
            if record.file_path != path:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"trailer names aggregator {record.agg_rank} "
                    f"({record.file_path}), contradicting its own path",
                    lost=st.header_count,
                )
                continue
            adopted += 1
        elif st.header_count != ref.particle_count:
            if st.trailer is not None and st.trailer.record.agg_rank == ref.agg_rank:
                record = st.trailer.record
                add(
                    ACTION_REBUILD_ENTRY,
                    path,
                    f"spatial.meta says {ref.particle_count} particles, file "
                    f"holds {st.header_count}; trusting the file's trailer",
                )
            else:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"spatial.meta says {ref.particle_count} particles, file "
                    f"holds {st.header_count}, and no trailer arbitrates",
                    lost=ref.particle_count,
                )
                continue
        else:
            record = ref

        # Checksum entry: keep the manifest's when it matches the bytes,
        # else take the recomputed one (or the trailer's, matching payload).
        old_entry = _norm_entry(_committed_entry(manifest, ref, path))
        entry = st.actual_entry
        if entry is None and st.trailer is not None:
            t_entry = _norm_entry(st.trailer.checksum_entry)
            if int(t_entry["payload_crc32"]) == st.payload_crc32:
                entry = t_entry
        if entry is None:
            entry = old_entry
        if entry is None:
            plan.unresolved.append(
                f"{path}: no way to derive checksum entry (manifest and "
                "trailer both lost)"
            )
            keep(record, None)
            continue
        already_noted = any(
            a.path == path and a.kind == ACTION_REBUILD_ENTRY
            for a in plan.actions
        )
        if manifest is not None and old_entry != entry and not already_noted:
            add(
                ACTION_REBUILD_ENTRY,
                path,
                "manifest checksum entry disagrees with the data file; "
                "recomputed from the payload"
                if old_entry is not None
                else "manifest entry missing; recomputed from the payload",
            )
        keep(record, entry)

        # Trailer health: v3 files must carry a trailer agreeing with the
        # committed state; rewrite it from that state when they don't.
        if st.version >= 3:
            wanted = want_trailer(record, entry)
            if st.trailer != wanted:
                plan.rewrite[path] = (st.header_count, st.rec_size)
                plan.trailers[path] = wanted
                add(
                    ACTION_REWRITE_TRAILER,
                    path,
                    st.trailer_detail
                    or "recovery trailer disagrees with committed state",
                )

    # -- assemble the target dataset-level state ---------------------------
    try:
        table = SpatialMetadata(
            sorted(records, key=lambda r: r.box_id),
            attr_names=metadata.attr_names
            if metadata is not None
            else donor.attr_names,
        )
    except MetadataError as exc:
        # Refuse to act on a plan whose end state would not even validate
        # (e.g. two adopted trailers claiming the same box) — report instead.
        plan.unresolved.append(f"rebuilt table is inconsistent: {exc}")
        plan.actions = []
        plan.truncate.clear()
        plan.rewrite.clear()
        plan.trailers.clear()
        plan.drop_files.clear()
        plan.delete_paths.clear()
        plan.write_current_gen = None
        return plan
    plan.meta_blob = table.to_bytes()
    plan.rebuild_metadata = raw_meta is None or plan.meta_blob != raw_meta
    if plan.rebuild_metadata:
        detail = f"{len(table)} records"
        if adopted:
            detail += f" ({adopted} adopted from recovery trailers)"
        plan.actions.insert(
            0, RepairAction(ACTION_REBUILD_METADATA, meta_path, detail)
        )

    new_manifest = Manifest(
        dtype=dtype,
        num_files=len(table),
        total_particles=table.total_particles,
        lod_base=lod_params[0],
        lod_scale=lod_params[1],
        lod_heuristic=lod_params[2],
        lod_seed=lod_params[3],
        writer=writer_prov,
        checksums={p: checksums[p] for p in sorted(checksums, key=_natural_key)},
        spatial_meta_crc32=zlib.crc32(plan.meta_blob),
        generation=target.generation,
        parent=(
            manifest.parent
            if manifest is not None and manifest.generation == target.generation
            else (target.generation - 1 if target.generation > 0 else None)
        ),
    )
    plan.manifest = new_manifest
    plan.rebuild_manifest = (
        manifest is None or new_manifest.to_json() != manifest.to_json()
    )
    if plan.rebuild_manifest:
        plan.actions.insert(
            0 if not plan.rebuild_metadata else 1,
            RepairAction(
                ACTION_REBUILD_MANIFEST,
                manifest_path,
                "committed state rewritten from repaired files"
                if manifest is not None
                else "committed state rebuilt from recovery trailers",
            ),
        )

    # -- chain hygiene: drops, residue, and the CURRENT pointer -------------
    target_refs = set(checksums) | set(ref_records) | foreign
    for gen in drop_gens:
        prefix = f"g{gen}_"
        unique = sorted(
            (
                f"data/{n}"
                for n in names
                if n.startswith(prefix) and f"data/{n}" not in target_refs
            ),
            key=_natural_key,
        )
        plan.drop_files[gen] = unique
        plan.delete_paths.append(generation_manifest_path(gen))
        plan.delete_paths.append(generation_meta_path(gen))
        plan.actions.append(
            RepairAction(
                ACTION_DROP_GENERATION,
                generation_manifest_path(gen),
                f"generation {gen} {drop_reasons[gen]}",
            )
        )
        plan.actions.extend(
            RepairAction(
                ACTION_QUARANTINE,
                path,
                f"belongs to dropped generation {gen}",
            )
            for path in unique
        )
    for issue in report.issues:
        if issue.code == "generation-residue":
            plan.delete_paths.append(issue.path)
            plan.actions.append(
                RepairAction(
                    ACTION_DROP_GENERATION,
                    issue.path,
                    "spatial table without its manifest (aborted commit "
                    "residue)",
                )
            )
    if target.generation > 0:
        # Chained datasets always finish by (re)pointing CURRENT at the
        # converged generation — this is the repair's own commit flip.
        plan.write_current_gen = target.generation
        if current_damaged:
            plan.actions.append(
                RepairAction(
                    ACTION_REWRITE_CURRENT,
                    CURRENT_PATH,
                    f"pointer rewritten to committed generation "
                    f"{target.generation}",
                )
            )
    elif backend.exists(CURRENT_PATH) and (current_damaged or drop_gens):
        plan.delete_paths.append(CURRENT_PATH)
        plan.actions.append(
            RepairAction(
                ACTION_REWRITE_CURRENT,
                CURRENT_PATH,
                "stray pointer removed (classic single-manifest dataset)",
            )
        )

    if target.generation == 0:
        plan.invalidate_marker = (
            backend.exists(MANIFEST_PATH) and plan.rebuild_manifest
        )
    else:
        plan.invalidate_marker = backend.exists(CURRENT_PATH) and (
            plan.rebuild_manifest or plan.rebuild_metadata
        )
    return plan


# -- execution -----------------------------------------------------------------


def _quarantine_path(ds: Dataset, path: str, rec: Recorder) -> None:
    """Move ``path`` under ``quarantine/`` (copy + delete; backends have no
    rename primitive, and a copy keeps the evidence even if the delete
    fails)."""
    raw = ds.retry.call(ds.backend.read_file, path, recorder=rec)
    ds.retry.call(
        ds.backend.write_file,
        f"{QUARANTINE_DIR}/{path}",
        bytes(raw),
        actor=ds.actor,
        recorder=rec,
    )
    ds.retry.call(ds.backend.delete, path, recorder=rec)


def _rewrite_file(
    ds: Dataset,
    path: str,
    count: int,
    rec_size: int,
    trailer: RecoveryTrailer,
    rec: Recorder,
) -> None:
    """Rebuild a file image around the (verified) first ``count`` records —
    the truncate and rewrite-trailer primitive.  A trailer carrying a codec
    marks a columnar (v4) file: the kept payload length comes from its
    segment descriptors (encoded bytes, not ``count * rec_size``)."""
    raw = bytes(ds.retry.call(ds.backend.read_file, path, recorder=rec))
    if trailer.codec is not None:
        section = trailer.record.section
        enc_len = (
            columnar_payload_length(FileChunkIndex.unpack(section, path))
            if section else 0
        )
        payload = raw[HEADER_BYTES : HEADER_BYTES + enc_len]
        blob = build_data_blob(
            payload, rec_size, count, trailer, version=DATA_VERSION_COLUMNAR
        )
    else:
        payload = raw[HEADER_BYTES : HEADER_BYTES + count * rec_size]
        blob = build_data_blob(payload, rec_size, count, trailer)
    ds.retry.call(
        ds.backend.write_file, path, blob, actor=ds.actor, recorder=rec
    )


def _execute(ds: Dataset, plan: _RepairPlan, report: RepairReport) -> None:
    """Run the plan under the writer's two-phase discipline: invalidate the
    commit marker, fix the data files (fanned on the executor), then write
    ``spatial.meta``, then ``manifest.json`` last."""
    rec = ds.recorder
    if plan.invalidate_marker:
        marker = MANIFEST_PATH if plan.target.generation == 0 else CURRENT_PATH
        ds.retry.call(ds.backend.delete, marker, missing_ok=True, recorder=rec)

    # Stray chain state goes first, manifest-before-meta per dropped
    # generation (deleting the manifest un-commits it; a crash mid-drop
    # leaves residue the next scrub still recognises).
    for path in plan.delete_paths:
        ds.retry.call(ds.backend.delete, path, missing_ok=True, recorder=rec)

    file_actions = [
        a
        for a in plan.actions
        if a.kind in (ACTION_QUARANTINE, ACTION_TRUNCATE, ACTION_REWRITE_TRAILER)
    ]

    def apply(action: RepairAction, child: Recorder) -> RepairAction:
        if action.kind == ACTION_QUARANTINE:
            _quarantine_path(ds, action.path, child)
        elif action.kind == ACTION_TRUNCATE:
            count, rec_size = plan.truncate[action.path]
            _rewrite_file(
                ds, action.path, count, rec_size, plan.trailers[action.path], child
            )
        else:
            count, rec_size = plan.rewrite[action.path]
            _rewrite_file(
                ds, action.path, count, rec_size, plan.trailers[action.path], child
            )
        return action

    tasks = [
        (lambda child, a=action: apply(a, child)) for action in file_actions
    ]
    for outcome in ds.executor.run(tasks, rec):
        if outcome.recorder is not None:
            rec.merge(outcome.recorder)
        action = file_actions[outcome.index]
        if outcome.error is not None:
            report.unresolved.append(f"{action.path}: {action.kind} failed: "
                                     f"{outcome.error}")
            continue
        action.executed = True

    if plan.rebuild_metadata:
        assert plan.meta_blob is not None
        ds.retry.call(
            ds.backend.write_file, plan.target.meta_path, plan.meta_blob,
            actor=ds.actor, recorder=rec,
        )
    if plan.rebuild_manifest:
        assert plan.manifest is not None
        ds.retry.call(
            ds.backend.write_file,
            plan.target.manifest_path,
            plan.manifest.to_json().encode("utf-8"),
            actor=ds.actor,
            recorder=rec,
        )
    if plan.write_current_gen is not None:
        # The repair's own commit flip: everything above is now the
        # committed state the pointer names.
        ds.retry.call(
            write_current, ds.backend, plan.write_current_gen,
            actor=ds.actor, recorder=rec,
        )
    for action in plan.actions:
        if action.kind in (
            ACTION_REBUILD_METADATA,
            ACTION_REBUILD_MANIFEST,
            ACTION_REBUILD_ENTRY,
            ACTION_DROP_MISSING,
            ACTION_DROP_GENERATION,
            ACTION_REWRITE_CURRENT,
        ):
            action.executed = True
    for action in plan.actions:
        if action.executed:
            rec.add(REPAIR_ACTIONS, 1, key=(action.kind,))
            rec.event(
                EV_REPAIR_ACTION,
                kind=action.kind,
                path=action.path,
                particles_salvaged=action.particles_salvaged,
                particles_lost=action.particles_lost,
            )


# -- entry points --------------------------------------------------------------


def repair_dataset(
    source: Dataset | FileBackend,
    report: ScrubReport | None = None,
    *,
    dry_run: bool = False,
) -> RepairReport:
    """Scrub (unless given a report), plan, execute, and verify one dataset.

    With ``dry_run=True`` the plan is returned unexecuted — no write, delete
    or quarantine happens.  Otherwise the plan runs under the dataset's
    retry policy and executor, and a verification scrub confirms the result
    (:attr:`RepairReport.issues_remaining`).
    """
    ds = as_dataset(source)
    out = RepairReport(dry_run=dry_run)

    if report is None:
        with ds.recorder.span(PHASE_REPAIR_SCRUB, cat="repair"):
            report = ds.scrub()
    if report.ok:
        out.clean = True
        return out

    with ds.recorder.span(PHASE_REPAIR_PLAN, cat="repair"):
        plan = _plan(ds, report)
    out.actions = plan.actions
    out.unresolved.extend(plan.unresolved)
    out.rebuilt_metadata = plan.rebuild_metadata
    out.rebuilt_manifest = plan.rebuild_manifest
    if dry_run:
        return out

    with ds.recorder.span(PHASE_REPAIR_EXECUTE, cat="repair"):
        _execute(ds, plan, out)
        ds.recorder.add(REPAIR_PARTICLES_SALVAGED, out.particles_salvaged)
        ds.recorder.add(REPAIR_PARTICLES_LOST, out.particles_lost)
        ds.recorder.add(REPAIR_FILES_QUARANTINED, out.files_quarantined)
    ds.invalidate_cache()

    with ds.recorder.span(PHASE_REPAIR_VERIFY, cat="repair"):
        verify = ds.scrub()
    out.issues_remaining = [
        f"{i.code} {i.path}: {i.detail}" for i in verify.issues
    ]
    return out


# -- series-level recovery -----------------------------------------------------


@dataclass
class SeriesRepairReport:
    """Aggregated outcome of repairing every timestep of a series."""

    dry_run: bool = False
    #: ``(step, per-step report)`` for every indexed timestep.
    steps: list = field(default_factory=list)
    #: Step directories quarantined whole (aborted appends, not in the index).
    quarantined_steps: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)

    @property
    def particles_salvaged(self) -> int:
        return sum(r.particles_salvaged for _s, r in self.steps)

    @property
    def particles_lost(self) -> int:
        return sum(r.particles_lost for _s, r in self.steps)

    @property
    def clean(self) -> bool:
        return (
            not self.quarantined_steps
            and not self.unresolved
            and all(r.clean for _s, r in self.steps)
        )

    @property
    def ok(self) -> bool:
        return not self.unresolved and all(r.ok for _s, r in self.steps)

    @property
    def data_loss(self) -> bool:
        return any(r.data_loss for _s, r in self.steps)

    @property
    def exit_code(self) -> int:
        if self.clean:
            return 0
        if self.dry_run or not self.ok or self.data_loss:
            return 1
        # Repaired losslessly, but an aborted append was swept aside: that
        # is damage found, even though no committed step lost a particle.
        return 1 if self.quarantined_steps else 0

    def summary_lines(self) -> list[str]:
        lines = [f"indexed steps     : {len(self.steps)}"]
        for step, rep in self.steps:
            if rep.clean:
                lines.append(f"step {step:6d}       : clean")
                continue
            lines.append(f"step {step:6d}       :")
            lines.extend(f"  {line}" for line in rep.summary_lines())
        for prefix in self.quarantined_steps:
            lines.append(
                f"quarantined step  : {prefix} (aborted append, not in "
                "series.json)"
            )
        lines.extend(f"unresolved: {reason}" for reason in self.unresolved)
        if self.clean:
            lines.append("series is clean; nothing to repair")
        elif self.dry_run:
            lines.append("dry run: no changes were made")
        elif not self.ok:
            lines.append("series repair incomplete: restore from a replica")
        else:
            lines.append("series repaired")
        return lines


def repair_series(
    source: Dataset | FileBackend,
    *,
    dry_run: bool = False,
) -> SeriesRepairReport:
    """Repair every indexed timestep; quarantine un-indexed step directories.

    ``series.json`` is the series-level commit marker (rank 0 appends to it
    only after a step's own two-phase commit), so a ``t######`` directory
    absent from it is an aborted append: its contents are moved under
    ``quarantine/`` untouched.  The index also holds per-step simulation
    times that exist nowhere else, so a corrupt index is unresolved, not
    guessed.
    """
    from repro.io.prefix import PrefixBackend
    from repro.series.index import SeriesIndex

    root = as_dataset(source)
    out = SeriesRepairReport(dry_run=dry_run)

    index = None
    try:
        index = SeriesIndex.read(root.backend, actor=root.actor)
    except FormatError as exc:
        out.unresolved.append(
            f"series index unusable ({exc}); step times are recorded nowhere "
            "else, so the index cannot be rebuilt"
        )

    indexed: set[str] = set()
    if index is not None:
        for info in index:
            indexed.add(info.prefix)
            step_ds = Dataset(
                PrefixBackend(root.backend, info.prefix),
                actor=root.actor,
                strict=root.strict,
                retry=root.retry,
                recorder=root.recorder,
                executor=root.executor,
            )
            out.steps.append(
                (info.step, repair_dataset(step_ds, dry_run=dry_run))
            )

    if index is not None:
        try:
            names = root.backend.listdir("")
        except BackendError:
            names = []
        for name in sorted(names):
            if not re.fullmatch(r"t\d{6}", name) or name in indexed:
                continue
            # An empty un-indexed step directory is residue of a previous
            # quarantine (POSIX backends delete files but keep directories),
            # not fresh damage — skip it so repair stays idempotent.
            files = _step_files(root.backend, name)
            if not files:
                continue
            out.quarantined_steps.append(name)
            if dry_run:
                continue
            for path in files:
                _quarantine_path(root, path, root.recorder)
                root.recorder.add(REPAIR_ACTIONS, 1, key=(ACTION_QUARANTINE,))
                root.recorder.event(
                    EV_REPAIR_ACTION,
                    kind=ACTION_QUARANTINE,
                    path=path,
                    particles_salvaged=0,
                    particles_lost=0,
                )
    return out


def _step_files(backend: FileBackend, prefix: str) -> list[str]:
    """Every file under one step directory (the known dataset layout)."""
    out: list[str] = []
    try:
        names = backend.listdir(prefix)
    except BackendError:
        return out
    for name in sorted(names):
        if name == "data":
            try:
                subs = backend.listdir(f"{prefix}/data")
            except BackendError:
                subs = []
            out.extend(f"{prefix}/data/{n}" for n in sorted(subs))
        else:
            out.append(f"{prefix}/{name}")
    return out
