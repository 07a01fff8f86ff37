"""Dataset scrubbing: verify every on-disk invariant and report damage.

A scrub walks one dataset bottom-up and checks everything the format
guarantees:

* the manifest parses and its version is supported;
* the spatial metadata table parses, its whole-table CRC matches, and the
  manifest's recorded ``spatial_meta_crc32`` agrees with the bytes on disk;
* every data file the table references exists, has a valid header, the
  header's particle count matches the table's, the byte length is exact,
  the v2 footer CRC matches, and the manifest's per-LOD prefix checksums
  recompute correctly;
* no orphan data files sit in ``data/`` (leftovers of an aborted write);
* the generation chain is structurally sound: the checksummed ``CURRENT``
  pointer parses and names an existing generation, every chained manifest
  agrees with its filename, no generation sits uncommitted ahead of
  ``CURRENT`` (an append that crashed before its commit point), and no
  ``spatial.gen-N.meta`` survives without its manifest (GC crash residue).

The scrub also surfaces the **quarantine inventory** — files a previous
repair moved to ``quarantine/`` — in :attr:`ScrubReport.quarantined`.
Quarantined files are prior, already-accounted losses, not live damage, so
they are reported informationally and never fail the scrub.

The outcome is a :class:`ScrubReport` of typed :class:`ScrubIssue` entries.
Each issue is tagged **repairable** when :mod:`repro.core.repair` can fix it
*losslessly* — rebuilding metadata/manifest state from the v3 recovery
trailers, or rewriting a damaged trailer from committed state.  Issues left
untagged cost data to resolve: repair salvages what it can (truncating a
torn file to its longest valid LOD prefix) and quarantines the rest.  The
repair planner consumes these tags to pick its strategy per issue.

:func:`dataset_is_complete` is the cheap commit-marker probe used by the
writer's two-phase protocol: ``manifest.json`` is written last, so a
dataset without a parseable manifest (or with manifest-referenced pieces
missing) is an aborted write, never a valid dataset.

Both entry points accept a :class:`~repro.dataset.Dataset` (or anything
:func:`~repro.dataset.as_dataset` coerces) and run the per-file
verification work — the expensive part of a scrub — on the dataset's
:class:`~repro.io.executor.IoExecutor`.  Each file's checks are
independent and produce a partial report; partials merge back in metadata
order, so the final :class:`ScrubReport` is identical whichever executor
ran the scrub.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.dataset import Dataset, as_dataset
from repro.errors import (
    BackendError,
    ChecksumError,
    DataFileError,
    FormatError,
    MetadataError,
)
from repro.format.chunks import FileChunkIndex, build_chunk_entry
from repro.format.datafile import (
    DATA_VERSION_COLUMNAR,
    FOOTER_BYTES,
    HEADER_BYTES,
    columnar_payload_length,
    compute_file_checksums,
    decode_columnar_payload,
    extract_recovery_trailer,
    peek_data_header,
    prefix_checksum_boundaries,
    read_data_file,
    read_recovery_trailer,
    scan_columnar_segments,
    verify_data_footer,
)
from repro.format.generations import (
    CURRENT_PATH,
    ResolvedGeneration,
    generation_manifest_path,
    list_generations,
    load_generation,
    parse_generation_path,
    read_current,
    resolve_generation,
    verify_generation,
)
from repro.format.manifest import MANIFEST_PATH, Manifest
from repro.format.metadata import META_PATH, SpatialMetadata
from repro.io.backend import FileBackend
from repro.particles.batch import ParticleBatch

#: Where repair parks unrecoverable bytes instead of deleting them (defined
#: here, next to the inventory scan; re-exported by :mod:`repro.core.repair`).
QUARANTINE_DIR = "quarantine"

__all__ = [
    "QUARANTINE_DIR",
    "ScrubIssue",
    "ScrubReport",
    "scrub_dataset",
    "dataset_is_complete",
]


@dataclass(frozen=True)
class ScrubIssue:
    """One verified-invariant violation found by a scrub."""

    path: str
    code: str
    detail: str
    #: True when ``repro repair`` can fix this losslessly (rebuild from
    #: recovery trailers / committed state); False when resolving it costs
    #: data (salvage-truncate or quarantine).
    repairable: bool = False


@dataclass
class ScrubReport:
    """Everything a scrub learned about one dataset."""

    issues: list[ScrubIssue] = field(default_factory=list)
    files_checked: int = 0
    bytes_verified: int = 0
    #: The dataset carries its commit marker and all referenced pieces.
    complete: bool = False
    #: Generation the scrub verified (0 for a classic single-manifest
    #: dataset; the committed/resolved generation for a chained one).
    generation: int = 0
    #: Files a previous repair moved to ``quarantine/`` — prior losses,
    #: surfaced informationally (they never make the scrub fail).
    quarantined: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def codes(self) -> set[str]:
        return {issue.code for issue in self.issues}

    def add(self, path: str, code: str, detail: str, repairable: bool = False) -> None:
        self.issues.append(ScrubIssue(path, code, detail, repairable))

    def summary_lines(self) -> list[str]:
        """Human-readable report (the ``repro scrub`` output body)."""
        lines = [
            f"files checked   : {self.files_checked}",
            f"bytes verified  : {self.bytes_verified}",
            f"generation      : {self.generation}",
            f"complete        : {'yes' if self.complete else 'no'}",
            f"quarantined     : {len(self.quarantined)}",
            f"issues          : {len(self.issues)}",
        ]
        for name in self.quarantined:
            lines.append(f"  [quarantined] {name}")
        for issue in self.issues:
            tag = "repairable" if issue.repairable else "CORRUPT"
            lines.append(f"  [{tag}] {issue.code} {issue.path}: {issue.detail}")
        if self.ok:
            lines.append("dataset is clean")
        elif all(i.repairable for i in self.issues):
            lines.append(
                "dataset is repairable without data loss: "
                "run `repro repair` to converge"
            )
        else:
            lines.append(
                "dataset has damage needing salvage: run `repro repair` "
                "(truncates/quarantines unrecoverable pieces) or restore "
                "from a replica"
            )
        return lines


def dataset_is_complete(source: Dataset | FileBackend) -> bool:
    """Whether the dataset committed: marker present, parseable, and every
    piece it references on disk.

    The two-phase writer orders ``data/*`` → ``spatial.meta`` → marker
    (``manifest.json`` for a classic write, the ``CURRENT`` flip for a
    chained commit), so an interrupted write at *any* point leaves this
    returning False — either the marker is missing/torn, or it never covers
    missing pieces (the marker is written only after everything else).

    Deliberately strict about the chain: a damaged ``CURRENT``, or a
    missing one while chained manifests exist, means the commit state is
    ambiguous — that reads as incomplete even though resolution could fall
    back.  An explicitly pinned facade probes its pinned generation.
    """
    ds = as_dataset(source)
    backend = ds.backend
    pin = ds.pinned_generation
    if pin is None:
        try:
            resolved = resolve_generation(backend, actor=ds.actor)
        except FormatError:
            return False
        if resolved.fallback:
            return False
        gen = resolved.generation
    else:
        gen = pin
    return verify_generation(backend, gen, actor=ds.actor)


def _quarantine_inventory(backend: FileBackend) -> list[str]:
    """Paths (relative to ``quarantine/``) of previously quarantined files.

    Stack-based walk that only relies on ``listdir``/``exists``: a child
    with a non-empty listing is a directory; an empty listing plus
    existence means a file (both the virtual and POSIX backends satisfy
    this — POSIX ``listdir`` on a file raises, which is caught).
    """
    out: list[str] = []
    stack = [QUARANTINE_DIR]
    while stack:
        prefix = stack.pop()
        try:
            names = backend.listdir(prefix)
        except BackendError:
            names = []
        for name in sorted(names, reverse=True):
            child = f"{prefix}/{name}"
            try:
                children = backend.listdir(child)
            except BackendError:
                children = []
            if children:
                stack.append(child)
            elif backend.exists(child):
                out.append(child[len(QUARANTINE_DIR) + 1 :])
    return sorted(out)


def _scrub_chain(
    backend: FileBackend, report: ScrubReport
) -> ResolvedGeneration | None:
    """Verify the generation chain's structure; returns the scrub target.

    Adds the typed pointer/chain issues (all repairable — the repair
    subsystem rewrites ``CURRENT`` and drops uncommitted or damaged
    generations) and decides which generation the deep per-file checks run
    against.  ``None`` means nothing on disk resolves at all.
    """
    gens = list_generations(backend)
    chained = [g for g in gens if g > 0]
    current: int | None = None
    current_valid = False
    if backend.exists(CURRENT_PATH):
        try:
            current = read_current(backend)
            current_valid = True
        except FormatError as exc:
            report.add(CURRENT_PATH, "current-corrupt", str(exc), repairable=True)
    elif chained:
        report.add(
            CURRENT_PATH,
            "current-missing",
            "generation manifests exist but the CURRENT pointer is absent",
            repairable=True,
        )
    if current_valid and current not in gens:
        report.add(
            CURRENT_PATH,
            "current-dangling",
            f"CURRENT names generation {current} but no such manifest exists",
            repairable=True,
        )
        current_valid = False

    try:
        target = resolve_generation(backend)
    except FormatError as exc:
        report.add(CURRENT_PATH, "chain-unresolvable", str(exc))
        return None

    # The committed baseline: what CURRENT says when it is trustworthy,
    # else what resolution fell back to.  Generations past it were never
    # committed (an append that crashed before its CURRENT flip).
    baseline = current if current_valid else target.generation
    for g in gens:
        if g == target.generation:
            continue
        path = generation_manifest_path(g)
        try:
            m = Manifest.read(backend, path)
        except FormatError as exc:
            report.add(
                path,
                "generation-damaged",
                f"generation {g} manifest unusable: {exc}",
                repairable=True,
            )
            continue
        if m.generation != g:
            report.add(
                path,
                "generation-mismatch",
                f"file is named generation {g} but records generation "
                f"{m.generation}",
                repairable=True,
            )
        elif g > baseline:
            report.add(
                path,
                "generation-ahead",
                f"generation {g} was never committed "
                f"(the committed generation is {baseline})",
                repairable=True,
            )
        elif not verify_generation(backend, g):
            report.add(
                path,
                "generation-damaged",
                f"generation {g} no longer fully verifies",
                repairable=True,
            )

    # GC/append crash residue: a spatial table whose manifest is gone.
    try:
        names = backend.listdir("")
    except BackendError:
        names = []
    for name in sorted(names):
        parsed = parse_generation_path(name)
        if parsed is not None and parsed[0] == "meta" and parsed[1] not in gens:
            report.add(
                name,
                "generation-residue",
                f"spatial table for generation {parsed[1]} has no manifest "
                "(append or GC crash residue)",
                repairable=True,
            )
    return target


@dataclass
class ColumnarCheck:
    """What verifying a columnar (v4) file image against its recorded chunk
    index established (see :func:`verify_columnar`)."""

    #: The index the verdict is against: the copy that verified, else the
    #: first that validated (salvage works from it); None if none did.
    index: FileChunkIndex | None = None
    codec: str = "none"
    #: The decoded logical rows — set iff the file verified.
    rows: np.ndarray | None = None
    #: Stored (encoded) payload byte length under ``index``.
    enc_len: int = 0
    #: Scrub issue code and details of the failure (empty when verified).
    code: str = ""
    details: list[str] = field(default_factory=list)


def verify_columnar(raw: bytes, copies, count: int, dtype, path: str) -> ColumnarCheck:
    """Verify a v4 file image against the first recorded copy of its chunk
    index under which it verifies.

    ``copies`` are ``(section, codec)`` pairs, most trusted first — the
    trailer's and the table's.  Either may lie while CRC-valid, and a lying
    copy must cost a repairable index issue, not a verdict on the payload;
    so the payload is condemned (first copy's failure) only when no copy
    verifies it.  Damage is pinpointed at *segment* granularity.
    """
    first: ColumnarCheck | None = None
    for section, codec in copies:
        if not section and count:
            continue
        check = ColumnarCheck(codec=codec or "none")
        try:
            index = FileChunkIndex.empty()
            if section:
                index = FileChunkIndex.unpack(section, path).validated(count, path, codec)
        except DataFileError as exc:
            check.code, check.details = "data-corrupt", [str(exc)]
            first = first or check
            continue
        check.index = index
        check.enc_len = columnar_payload_length(index) if len(index) else 0
        expected = HEADER_BYTES + check.enc_len + FOOTER_BYTES
        bad = scan_columnar_segments(raw, index, dtype)
        if len(raw) < expected:
            check.code = "data-truncated"
            check.details = [
                f"expected {expected} bytes for {count} particles, found {len(raw)}"
            ]
        elif bad:
            check.code, check.details = "segment-checksum", [d for _c, _n, d in bad]
        else:
            try:
                verify_data_footer(raw[:expected], path)
            except ChecksumError as exc:
                check.code, check.details = "data-checksum", [str(exc)]
            else:
                try:
                    check.rows = decode_columnar_payload(
                        raw[HEADER_BYTES : HEADER_BYTES + check.enc_len],
                        index, check.codec, dtype, path,
                    )
                    return check
                except (ChecksumError, DataFileError) as exc:
                    check.code, check.details = "data-corrupt", [str(exc)]
        if first is None or first.index is None:
            first = check
    return first or ColumnarCheck(
        code="data-corrupt",
        details=[
            "columnar file has no usable segment descriptors "
            "(recovery trailer and table section both lost)"
        ],
    )


def _chunk_section_error(
    section, batch, manifest: Manifest, attr_names, path: str, verified=None
) -> str | None:
    """Why a table record's chunk section disagrees with the decoded payload
    (or, columnar, with the ``verified`` segment table the scan used).

    Structural validation first (framing, tiling, shapes), then an exact
    recompute: the chunk grid is fully determined by the LOD boundaries and the chunk
    size (recoverable as the largest recorded chunk), and bounds/attr
    ranges are float64 min/max of the actual particles, so a clean index
    must pack to the rebuilt one's bytes.
    """
    try:
        recorded = FileChunkIndex.unpack(section, path).validated(len(batch), path)
    except DataFileError as exc:
        return str(exc)
    chunk_size = int(recorded.counts.max()) if len(recorded) else 1
    expected = build_chunk_entry(
        batch,
        chunk_size,
        prefix_checksum_boundaries(
            len(batch), manifest.lod_base, manifest.lod_scale
        ),
        tuple(attr_names),
    )
    # The payload cannot reproduce columnar segments (they describe
    # *encoded* bytes): those must equal the descriptors the CRC scan used.
    expected.segments = recorded.segments
    if expected.to_section() != section:
        return (
            "recorded chunk bounds/ranges disagree with the payload "
            f"({len(recorded)} chunks, size {chunk_size})"
        )
    if verified is not None and not np.array_equal(recorded.segments, verified):
        return "recorded column segments disagree with the file's verified ones"
    return None


def _scrub_data_file(
    backend: FileBackend, manifest: Manifest, rec, attr_names=()
) -> ScrubReport:
    """Verify one referenced data file; returns a partial report.

    Pure with respect to shared state (nothing is mutated), which is what
    lets :func:`scrub_dataset` fan the per-file checks out on an executor
    and merge the partials back in metadata order.
    """
    report = ScrubReport()
    path = rec.file_path
    try:
        size = backend.size(path) if backend.exists(path) else None
    except BackendError:
        size = None
    if size is None:
        report.add(path, "data-missing", "referenced by spatial.meta but absent")
        return report
    report.files_checked += 1

    try:
        version, header_count = peek_data_header(backend, path)
    except (BackendError, DataFileError) as exc:
        report.add(path, "data-header", str(exc))
        return report
    if header_count != rec.particle_count:
        report.add(
            path,
            "count-mismatch",
            f"header says {header_count} particles, "
            f"spatial.meta says {rec.particle_count}",
        )
        return report

    recorded = manifest.checksums.get(path)
    stored_payload_crc: int | None = None
    verified = None  # columnar: the segment table the scan verified
    if version >= DATA_VERSION_COLUMNAR:
        try:
            raw = backend.read_file(path)
        except BackendError as exc:
            report.add(path, "data-unreadable", str(exc))
            return report
        copies = []
        try:
            trailer = extract_recovery_trailer(raw, path)
            copies.append((trailer.record.section, trailer.codec))
        except (ChecksumError, DataFileError):
            pass  # reported by the shared trailer checks below
        if recorded is not None:
            copies.append((rec.section, recorded.get("codec")))
        check = verify_columnar(raw, copies, header_count, manifest.dtype, path)
        if check.rows is None:
            for detail in check.details:
                report.add(path, check.code, detail)
            return report
        batch = ParticleBatch(check.rows)
        verified = check.index.segments
        stored_payload_crc = zlib.crc32(raw[HEADER_BYTES : HEADER_BYTES + check.enc_len])
    else:
        try:
            batch = read_data_file(backend, path, manifest.dtype)
        except ChecksumError as exc:
            report.add(path, "data-checksum", str(exc))
            return report
        except DataFileError as exc:
            msg = str(exc)
            if "expected" in msg and "bytes" in msg:
                code = "data-truncated"
            elif "record size" in msg:
                code = "dtype-mismatch"
            else:
                code = "data-corrupt"
            report.add(path, code, msg)
            return report
        except BackendError as exc:
            report.add(path, "data-unreadable", str(exc))
            return report
    report.bytes_verified += size

    if recorded is not None:
        actual = compute_file_checksums(
            batch, manifest.lod_base, manifest.lod_scale
        )
        if stored_payload_crc is not None:
            # v4 manifests record the CRC of the *encoded* payload bytes.
            actual["payload_crc32"] = stored_payload_crc
        if int(recorded.get("payload_crc32", -1)) != actual["payload_crc32"]:
            report.add(
                path,
                "manifest-checksum-mismatch",
                "manifest payload_crc32 disagrees with the data file",
                repairable=True,
            )
        elif [list(p) for p in recorded.get("prefixes", [])] != actual["prefixes"]:
            report.add(
                path,
                "prefix-checksum-mismatch",
                "per-LOD prefix checksums disagree with the data file",
                repairable=True,
            )
        elif rec.section:
            # A bad chunk index silently turns pruned reads wrong, so it is
            # verified against the decoded payload whenever recorded.
            # Rebuilding it from the (already CRC-verified) payload is
            # lossless.
            detail = _chunk_section_error(
                rec.section, batch, manifest, attr_names, path, verified
            )
            if detail is not None:
                report.add(path, "chunk-index-mismatch", detail, repairable=True)

    # v3 self-description: the recovery trailer must parse, checksum, and
    # agree with the table record.  Rebuilding one from committed state is
    # lossless, so trailer issues are always tagged repairable.
    if version >= 3:
        try:
            trailer = read_recovery_trailer(backend, path)
        except (BackendError, ChecksumError, DataFileError) as exc:
            report.add(path, "trailer-damaged", str(exc), repairable=True)
        else:
            record = trailer.record
            if not rec.section:  # a table without sections records no index
                record = replace(record, section=b"")
            if record != rec:
                report.add(
                    path,
                    "trailer-mismatch",
                    "recovery trailer's record disagrees with spatial.meta's",
                    repairable=True,
                )
            elif recorded is not None and trailer.codec != recorded.get("codec"):
                report.add(
                    path,
                    "trailer-mismatch",
                    f"recovery trailer codec {trailer.codec!r} disagrees "
                    f"with the manifest's {recorded.get('codec')!r}",
                    repairable=True,
                )
    return report


def scrub_dataset(source: Dataset | FileBackend) -> ScrubReport:
    """Verify every checksum/header/count invariant of one dataset.

    Per-file verification (existence, header, full-read CRC, manifest
    checksum recomputation) runs on the dataset's executor; partial
    reports merge back in metadata order so the result is deterministic.
    """
    ds = as_dataset(source)
    backend = ds.backend
    report = ScrubReport()
    report.complete = dataset_is_complete(ds)
    report.quarantined = _quarantine_inventory(backend)

    # 0. Generation-chain structure: CURRENT pointer, uncommitted/damaged
    #    generations, GC residue.  Decides which generation the deep checks
    #    below run against.
    target = _scrub_chain(backend, report)
    manifest_path = target.manifest_path if target is not None else MANIFEST_PATH
    meta_path = target.meta_path if target is not None else META_PATH
    if target is not None:
        report.generation = target.generation

    # 1. Manifest — without it there is no committed dataset and no dtype.
    manifest = None
    if not backend.exists(manifest_path):
        report.add(manifest_path, "manifest-missing",
                   "no commit marker: write never completed", repairable=True)
    else:
        try:
            manifest = Manifest.read(backend, manifest_path, actor=ds.actor)
        except FormatError as exc:
            report.add(manifest_path, "manifest-corrupt", str(exc), repairable=True)

    # 2. Spatial metadata table.
    metadata = None
    raw_meta = None
    if not backend.exists(meta_path):
        report.add(meta_path, "metadata-missing",
                   "spatial metadata table absent", repairable=True)
    else:
        try:
            raw_meta = backend.read_file(meta_path)
        except BackendError as exc:
            report.add(meta_path, "metadata-unreadable", str(exc), repairable=True)
        if raw_meta is not None:
            try:
                metadata = SpatialMetadata.from_bytes(raw_meta)
                report.bytes_verified += len(raw_meta)
            except ChecksumError as exc:
                # Lossless to rebuild: every record survives in its data
                # file's recovery trailer.
                report.add(meta_path, "metadata-checksum", str(exc),
                           repairable=True)
            except MetadataError as exc:
                report.add(meta_path, "metadata-corrupt", str(exc), repairable=True)

    # 3. Manifest <-> metadata cross-checks.
    if manifest is not None and metadata is not None:
        if manifest.num_files != len(metadata.records):
            report.add(
                meta_path,
                "file-count-mismatch",
                f"manifest says {manifest.num_files} files, "
                f"table has {len(metadata.records)}",
                repairable=True,
            )
        if manifest.total_particles != metadata.total_particles:
            report.add(
                meta_path,
                "particle-count-mismatch",
                f"manifest says {manifest.total_particles} particles, "
                f"table sums to {metadata.total_particles}",
                repairable=True,
            )
        if (
            manifest.spatial_meta_crc32 is not None
            and raw_meta is not None
            and zlib.crc32(raw_meta) != manifest.spatial_meta_crc32
        ):
            report.add(
                meta_path,
                "metadata-crc-mismatch",
                "manifest's spatial_meta_crc32 disagrees with the spatial "
                "table on disk",
                repairable=True,
            )

    # 4. Every referenced data file — independent checks, fanned out on the
    #    dataset's executor; partials merge back in metadata order.
    if manifest is not None and metadata is not None:
        mf = manifest
        names = metadata.attr_names
        tasks = [
            (lambda _recorder, rec=rec: _scrub_data_file(backend, mf, rec, names))
            for rec in metadata.records
        ]
        for outcome in ds.executor.run(tasks, ds.recorder):
            if outcome.recorder is not None:
                ds.recorder.merge(outcome.recorder)
            if outcome.error is not None:
                raise outcome.error
            part = outcome.value
            report.issues.extend(part.issues)
            report.files_checked += part.files_checked
            report.bytes_verified += part.bytes_verified

        # 5. Orphans: files in data/ no generation's table references.
        #    The live set is the union over every generation whose pieces
        #    still parse — a file only an *older* retained generation
        #    references is not an orphan, while the data of an aborted
        #    append (no manifest ever committed) is.
        referenced = {rec.file_path for rec in metadata.records}
        for g in list_generations(backend):
            if target is not None and g == target.generation:
                continue
            try:
                _m, md = load_generation(backend, g, actor=ds.actor)
            except FormatError:
                continue
            referenced |= {rec.file_path for rec in md.records}
        try:
            names = backend.listdir("data")
        except BackendError:
            names = []
        for name in names:
            path = f"data/{name}"
            if path not in referenced:
                report.add(path, "data-orphan",
                           "not referenced by any generation's spatial table",
                           repairable=True)

    return report
