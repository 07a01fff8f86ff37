"""Dataset scrubbing: verify every on-disk invariant and report damage.

A scrub walks one dataset bottom-up and checks everything the format
guarantees:

* the manifest parses and its version is supported;
* the spatial metadata table parses whole, every CRC it carries matches
  (a version-6 table's head and each chunk section), and the manifest's
  recorded ``spatial_meta_crc32`` agrees with the bytes on disk;
* every data file the table or the manifest names exists, has a valid
  header, the header's particle count matches the table's, the byte length
  is exact and the v2 footer CRC (v4: every segment CRC) matches; then its
  table record, manifest entry and v3+ recovery trailer each equal — whole
  — the ones its payload rebuilds (:func:`want_entry`, :func:`want_trailer`);
* no orphan data files sit in ``data/`` (leftovers of an aborted write);
* the generation chain is structurally sound: the checksummed ``CURRENT``
  pointer parses and names an existing generation, every chained manifest
  agrees with its filename, no generation sits uncommitted ahead of
  ``CURRENT`` (an append that crashed before its commit point), and no
  ``spatial.gen-N.meta`` survives without its manifest (GC crash residue).

The outcome is a :class:`ScrubReport` of typed :class:`ScrubIssue` entries,
plus the **quarantine inventory** — files a previous repair moved to
``quarantine/``, prior losses reported informationally, never failing the
scrub.  Every issue code has one row in :data:`ISSUES`, the rule table:
whether :mod:`repro.core.repair` resolves it *losslessly*, and which of the
:data:`FIXES` it applies.  A data file's action comes from its rows alone;
the table and manifest are rewritten wherever what repair keeps differs
from them, so a dataset-level ``rebuild`` row says why, not whether.

Scrub and repair share one :class:`Survey`, which the scrub builds once and
hands over as :attr:`ScrubReport.survey`: the target generation, the
manifest and table that survived, the dataset-wide facts, the file
inventory, and one :func:`inspect_file` state per inventory file (a single
read of its bytes under the dataset's retry policy, run on the dataset's
:class:`~repro.io.executor.IoExecutor`; states merge back in inventory
order, so the report is identical whichever executor ran it).

:func:`dataset_is_complete` is the cheap commit-marker probe used by the
writer's two-phase protocol: ``manifest.json`` is written last, so a
dataset without a parseable manifest (or with manifest-referenced pieces
missing) is an aborted write, never a valid dataset.
"""

from __future__ import annotations

import re
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from repro.dataset import Dataset, as_dataset
from repro.errors import (
    BackendError,
    ChecksumError,
    DataFileError,
    FormatError,
    MetadataChecksumError,
    MetadataError,
)
from repro.format.chunks import FileChunkIndex, build_chunk_entry
from repro.format.datafile import (
    DATA_MAGIC,
    DATA_VERSION_COLUMNAR,
    FOOTER_BYTES,
    HEADER_BYTES,
    RecoveryTrailer,
    columnar_payload_length,
    decode_columnar_payload,
    extract_recovery_trailer,
    parse_data_header,
    payload_prefix_checksums,
    prefix_checksum_boundaries,
    read_recovery_trailer,
    scan_columnar_segments,
    verify_data_footer,
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
    verify_generation,
)
from repro.format.manifest import Manifest, descr_to_dtype, dtype_to_descr
from repro.format.metadata import MetadataRecord, SpatialMetadata, check_table_crc
from repro.io.backend import FileBackend
from repro.obs.recorder import Recorder
from repro.particles.batch import ParticleBatch

#: Where repair parks unrecoverable bytes instead of deleting them (defined
#: here, next to the inventory scan; re-exported by :mod:`repro.core.repair`).
QUARANTINE_DIR = "quarantine"

__all__ = [
    "FIXES",
    "ISSUES",
    "QUARANTINE_DIR",
    "ScrubIssue",
    "ScrubReport",
    "scrub_dataset",
    "dataset_is_complete",
]


#: What repair may do about an issue, strongest first: a data file gets the
#: first of these its issues' rows name (``entry`` and ``trailer`` apply
#: together), and a dataset-level row's fix applies to the dataset.
FIXES = (
    "leave-unresolved",  # act on nothing; report it
    "drop-record",  # drop the lost file's record, billing its particles
    "quarantine",  # move the file to quarantine/, dropping its record
    "salvage",  # truncate to the longest verified LOD prefix, else quarantine
    "adopt-trailer-record",  # trust the file's own trailer record, else quarantine
    "entry",  # recompute the file's manifest entry and chunk index
    "trailer",  # rewrite the file's trailer from committed state
    "rebuild",  # rewrite the table and manifest from the kept records
    "pointer",  # rewrite (or, for generation 0, remove) CURRENT
    "drop-generation",  # delete the generation, quarantining files only it holds
    "delete",  # delete the named path
)


class IssueKind(NamedTuple):
    """One row of the rule table: how repair resolves one issue code."""

    #: Repair fixes it without losing a particle.
    repairable: bool
    #: The one of :data:`FIXES` repair applies.
    fix: str
    #: Why a ``drop-generation`` row's generation goes.
    why: str = ""


#: Every code a scrub emits, once: the rule table.
ISSUES: dict[str, IssueKind] = {
    "current-corrupt": IssueKind(True, "pointer"),
    "current-missing": IssueKind(True, "pointer"),
    "current-dangling": IssueKind(True, "pointer"),
    # No generation verifies: the newest one present is rebuilt.
    "chain-unresolvable": IssueKind(False, "rebuild"),
    # Without the dataset-wide facts no file can be inspected or rebuilt.
    "facts-unsettled": IssueKind(False, "leave-unresolved"),
    "generation-damaged": IssueKind(
        True, "drop-generation", "fails verification and is not the repair target"
    ),
    "generation-mismatch": IssueKind(
        True, "drop-generation", "embedded generation contradicts its filename"
    ),
    "generation-ahead": IssueKind(
        True, "drop-generation", "crashed before its CURRENT flip (never committed)"
    ),
    "generation-residue": IssueKind(True, "delete"),
    "manifest-missing": IssueKind(True, "rebuild"),
    "manifest-corrupt": IssueKind(True, "rebuild"),
    "metadata-missing": IssueKind(True, "rebuild"),
    "metadata-unreadable": IssueKind(True, "rebuild"),
    # Lossless to rebuild: every record survives in its file's trailer.
    "metadata-checksum": IssueKind(True, "rebuild"),
    "metadata-corrupt": IssueKind(True, "rebuild"),
    "file-count-mismatch": IssueKind(True, "rebuild"),
    "particle-count-mismatch": IssueKind(True, "rebuild"),
    "metadata-crc-mismatch": IssueKind(True, "rebuild"),
    "data-missing": IssueKind(False, "drop-record"),
    # Cannot even be copied aside: left in place.
    "data-unreadable": IssueKind(False, "leave-unresolved"),
    "data-header": IssueKind(False, "quarantine"),
    "data-corrupt": IssueKind(False, "quarantine"),
    "dtype-mismatch": IssueKind(False, "quarantine"),
    "data-truncated": IssueKind(False, "salvage"),
    "data-checksum": IssueKind(False, "quarantine"),
    "segment-checksum": IssueKind(False, "salvage"),
    "count-mismatch": IssueKind(False, "adopt-trailer-record"),
    # Derived state disagreeing with verified bytes is lossless to rebuild.
    "manifest-checksum-mismatch": IssueKind(True, "entry"),
    "prefix-checksum-mismatch": IssueKind(True, "entry"),
    "chunk-index-mismatch": IssueKind(True, "entry"),
    "trailer-damaged": IssueKind(True, "trailer"),
    "trailer-mismatch": IssueKind(True, "trailer"),
    # Nothing names the file: quarantining it costs no committed particle.
    "data-orphan": IssueKind(True, "quarantine"),
    # Committed, but neither the table nor the file's trailer places it.
    "data-unrecorded": IssueKind(False, "quarantine"),
}


@dataclass(frozen=True)
class ScrubIssue:
    """One verified-invariant violation found by a scrub."""

    path: str
    code: str
    detail: str
    #: ``ISSUES[code].repairable``: True when ``repro repair`` can fix this
    #: losslessly; False when resolving it costs data.
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
    #: What the scrub read, for repair to plan from.
    survey: Survey | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def codes(self) -> set[str]:
        return {issue.code for issue in self.issues}

    def add(self, path: str, code: str, detail: str) -> None:
        self.issues.append(ScrubIssue(path, code, detail, ISSUES[code].repairable))

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
    gen = ds.pinned_generation
    if gen is None:
        try:
            resolved = resolve_generation(ds.backend, actor=ds.actor)
        except FormatError:
            return False
        if resolved.fallback:
            return False
        gen = resolved.generation
    return verify_generation(ds.backend, gen, actor=ds.actor)


def walk_files(backend: FileBackend, root: str) -> list[str]:
    """Every file under directory ``root``, sorted, from ``listdir`` and
    ``exists`` alone.  A name listing nothing is a file where it exists —
    unless the backend has real directories (``root`` itself exists, as on
    POSIX): there listing a file fails, and an empty listing is an empty
    directory."""
    has_dirs = backend.exists(root)

    def walk(path: str) -> list[str]:
        try:
            names = backend.listdir(path)
        except BackendError:
            return [path] if backend.exists(path) else []
        if names:
            return [file for name in names for file in walk(f"{path}/{name}")]
        return [path] if not has_dirs and backend.exists(path) else []

    return sorted(walk(root))


# -- the survey scrub and repair share -----------------------------------------


@dataclass
class Survey:
    """What one scrub read of a dataset: everything repair plans from."""

    #: The generation scrub verifies and repair converges to.
    target: ResolvedGeneration
    #: Whether ``CURRENT`` exists on disk.
    has_current: bool = False
    #: Generations repair drops, each with why, and the files in ``data/``
    #: only they hold (in their namespace, named by no retained generation).
    dropped: dict[int, str] = field(default_factory=dict)
    stray: list[str] = field(default_factory=list)
    manifest: Manifest | None = None
    metadata: SpatialMetadata | None = None
    raw_meta: bytes | None = None
    #: The table's records by file path (empty when the table is lost).
    records: dict[str, MetadataRecord] = field(default_factory=dict)
    #: None when the facts cannot be settled; ``unsettled`` then says why.
    facts: DatasetFacts | None = None
    unsettled: str = ""
    #: One inspection per inventory file, in natural path order.
    files: dict[str, FileState] = field(default_factory=dict)

    def entry(self, path: str) -> dict | None:
        """``path``'s manifest checksum entry plus, as ``section``, the chunk
        index its table record carries (when that section frames; an
        unframeable one is regrafted from the payload)."""
        entry = self.manifest.checksums.get(path) if self.manifest is not None else None
        if entry is None:
            return None
        entry, ref = dict(entry), self.records.get(path)
        with suppress(DataFileError):
            if ref is not None:
                FileChunkIndex.unpack(ref.section, path)
                entry["section"] = ref.section
        return entry

    def committed(self, path: str) -> int | None:
        """The particle count committed for ``path``: the table's, else the
        last of its manifest prefixes; None when nothing names the file."""
        if path in self.records:
            return self.records[path].particle_count
        entry = self.manifest.checksums.get(path) if self.manifest is not None else None
        if entry is None:
            return None
        return int(entry["prefixes"][-1][0]) if entry.get("prefixes") else 0

    def placed(self, st: FileState) -> MetadataRecord | None:
        """The record a valid file is committed under: the table's; its own
        trailer's when the table is lost (the trailer naming this path) or
        miscounts the file (the trailer naming the same aggregator)."""
        own = st.trailer if not st.trailer_detail else None
        ref = self.records.get(st.path)
        if self.metadata is None:
            return own.record if own is not None and own.record.file_path == st.path else None
        if ref is None or st.header_count == ref.particle_count:
            return ref
        return own.record if own is not None and own.record.agg_rank == ref.agg_rank else None


def natural_key(path: str) -> tuple:
    return tuple(int(part) if part.isdigit() else part for part in re.split(r"(\d+)", path))


def _target(backend: FileBackend, report: ScrubReport) -> ResolvedGeneration:
    """The generation to verify and converge to.  The resolver's own
    discipline picks it (valid CURRENT first, else the newest fully
    verifiable generation); when nothing verifies, the newest generation
    present.  A valid CURRENT naming a newer generation whose table still
    parses wins over a fallback: its committed data survives even though
    its manifest is damaged, so it is rebuilt in place, not abandoned."""
    try:
        target = resolve_generation(backend)
    except FormatError as exc:
        report.add(CURRENT_PATH, "chain-unresolvable", str(exc))
        target = ResolvedGeneration(
            max(list_generations(backend), default=0),
            fallback=True,
            detail="no generation fully verifies; rebuilding the newest",
        )
    if not target.fallback:
        return target
    try:
        pointed = read_current(backend)
        if pointed is None or pointed <= target.generation:
            return target
        SpatialMetadata.read(backend, generation_meta_path(pointed))
    except (BackendError, FormatError):
        return target
    return ResolvedGeneration(
        pointed,
        fallback=True,
        detail=(
            f"CURRENT names generation {pointed}; its table survives, "
            "rebuilding the manifest in place"
        ),
    )


def _scrub_chain(backend: FileBackend, report: ScrubReport) -> tuple[Survey, set[str]]:
    """Verify the generation chain's structure: adds the typed pointer and
    chain issues, and returns the survey's target, drops and pointer state
    plus every file another retained generation references."""
    gens = list_generations(backend)
    current: int | None = None  # the pointer, where it is trustworthy
    has_current = backend.exists(CURRENT_PATH)
    if has_current:
        try:
            current = read_current(backend)
        except FormatError as exc:
            report.add(CURRENT_PATH, "current-corrupt", str(exc))
    elif any(g > 0 for g in gens):
        report.add(
            CURRENT_PATH,
            "current-missing",
            "generation manifests exist but the CURRENT pointer is absent",
        )
    if current is not None and current not in gens:
        report.add(
            CURRENT_PATH,
            "current-dangling",
            f"CURRENT names generation {current} but no such manifest exists",
        )
        current = None

    sv = Survey(_target(backend, report), has_current=has_current)
    target = sv.target.generation

    def flag(g: int, code: str, detail: str) -> None:
        report.add(generation_manifest_path(g), code, detail)
        if g > 0:
            sv.dropped[g] = ISSUES[code].why

    # The committed baseline: what CURRENT says when it is trustworthy,
    # else the target.  Generations past it were never committed (an
    # append that crashed before its CURRENT flip).
    baseline = target if current is None else current
    referenced: set[str] = set()
    for g in gens:
        if g == target:
            continue
        try:
            m = Manifest.read(backend, generation_manifest_path(g))
        except FormatError as exc:
            flag(g, "generation-damaged", f"generation {g} manifest unusable: {exc}")
            continue
        if m.generation != g:
            flag(
                g,
                "generation-mismatch",
                f"file is named generation {g} but records generation {m.generation}",
            )
        elif g > baseline:
            flag(
                g,
                "generation-ahead",
                f"generation {g} was never committed "
                f"(the committed generation is {baseline})",
            )
        elif not verify_generation(backend, g):
            flag(g, "generation-damaged", f"generation {g} no longer fully verifies")
        else:
            # Retained: files only it references are not this target's.
            with suppress(FormatError):
                referenced |= {
                    r.file_path for r in load_generation(backend, g, manifest=m)[1].records
                }

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
            )
    return sv, referenced


# -- one inspection per data file ----------------------------------------------


@dataclass(frozen=True)
class DatasetFacts:
    """The dataset-wide facts every data file is verified against and every
    recovery trailer repeats (identical across one dataset's files)."""

    dtype: np.dtype
    lod_base: int
    lod_scale: int
    lod_heuristic: str
    lod_seed: int | None
    #: The indexed attributes, in metadata-table order.
    attr_names: tuple[str, ...]
    #: The writer's chunk size (0: written unchunked), for regridding a file
    #: whose own recorded indexes are all lost.
    chunk_size: int


def settle_facts(
    manifest: Manifest | None,
    metadata: SpatialMetadata | None,
    donor: RecoveryTrailer | None,
) -> DatasetFacts:
    """The dataset-wide facts from the manifest and the table, taking what
    either lost from ``donor`` (a readable recovery trailer).  Raises
    :class:`~repro.errors.FormatError` when a needed donor dtype does not
    parse."""
    lod: Manifest | RecoveryTrailer
    if manifest is not None:
        dtype, lod = manifest.dtype, manifest
    else:
        assert donor is not None
        dtype, lod = descr_to_dtype(donor.dtype_descr), donor
    if metadata is not None:
        names, records = metadata.attr_names, metadata.records
    else:
        assert donor is not None
        names, records = donor.attr_names, [donor.record]
    return DatasetFacts(
        dtype, lod.lod_base, lod.lod_scale, lod.lod_heuristic, lod.lod_seed,
        tuple(names), chunk_size_of((r.section, r.particle_count) for r in records),
    )


def chunk_size_of(copies) -> int:
    """The writer's chunk size from the first ``(section, particle_count)``
    of ``copies`` whose section tiles that many particles (the grid is
    regular, so its largest chunk IS the chunk size); 0 when none does —
    the dataset was written unchunked, or every recorded copy is damaged."""
    for section, count in copies:
        try:
            index = FileChunkIndex.unpack(section).validated(count)
        except DataFileError:
            continue
        if len(index):
            return int(index.counts.max())
    return 0


def want_entry(payload_crc32: int, prefixes, codec: str | None) -> dict:
    """The manifest checksum entry of a file with this payload CRC, these
    per-LOD ``[count, crc32]`` prefix checksums and this columnar codec
    (None: a row file): what repair writes, and what scrub compares the
    manifest's entry against."""
    entry = {
        "payload_crc32": int(payload_crc32),
        "prefixes": [[int(c), int(crc)] for c, crc in prefixes],
    }
    if codec is not None:
        entry["codec"] = codec
    return entry


def want_trailer(record: MetadataRecord, entry: dict, facts: DatasetFacts) -> RecoveryTrailer:
    """The recovery trailer of a file with table ``record`` (chunk section
    included) and manifest ``entry``: what repair writes, and what scrub
    compares every trailer against."""
    return RecoveryTrailer(
        record,
        payload_crc32=int(entry["payload_crc32"]),
        prefixes=tuple((int(c), int(crc)) for c, crc in entry["prefixes"]),
        codec=entry.get("codec"),
        dtype_descr=dtype_to_descr(facts.dtype),
        lod_base=facts.lod_base,
        lod_scale=facts.lod_scale,
        lod_heuristic=facts.lod_heuristic,
        lod_seed=facts.lod_seed,
    )


@dataclass
class FileState:
    """What one pass over a data file's bytes established."""

    path: str
    #: The scrub code of the file's own damage (empty when its payload
    #: verified), and one detail per finding.
    code: str = ""
    details: list[str] = field(default_factory=list)
    size: int = 0
    version: int = 0
    rec_size: int = 0
    header_count: int = 0
    #: The parsed recovery trailer (v3+); ``trailer_detail`` says why it is
    #: unusable — it does not parse, or disagrees with the header's count.
    trailer: RecoveryTrailer | None = None
    trailer_detail: str = ""
    #: A verified payload's manifest entry (:func:`want_entry`) and chunk
    #: index section, rebuilt from its bytes; None: it did not verify.
    entry: dict | None = None
    section: bytes = b""
    #: A torn file's longest prefix verifying against the committed prefix
    #: checksums, as ``(particles, entry, section)`` to truncate to.
    salvage: tuple[int, dict, bytes] | None = None

    @property
    def detail(self) -> str:
        """The whole verdict in one line."""
        if self.code == "segment-checksum":
            return (
                f"{len(self.details)} damaged column segment(s); "
                f"first: {self.details[0]}"
            )
        return self.details[0] if self.details else ""

    def fail(self, code: str, *details: str) -> FileState:
        self.code, self.details = code, list(details)
        return self


def inspect_file(
    ds: Dataset, path: str, entry: dict | None, facts: DatasetFacts, rec: Recorder
) -> FileState:
    """Classify one data file (v1–v4, row or columnar) from a single read
    of its bytes under the dataset's retry policy; never raises.

    ``entry`` is the file's :meth:`Survey.entry` — a copy of its chunk
    index to verify segments against, and the prefix checksums a torn file
    is salvaged against — or None when nothing committed records the file.
    A valid file gets its entry and chunk section rebuilt from the payload.
    """
    st = FileState(path)
    try:
        if not ds.backend.exists(path):
            return st.fail("data-missing", "committed but absent")
        raw = bytes(ds.retry.call(ds.backend.read_file, path, recorder=rec))
    except BackendError as exc:
        return st.fail("data-unreadable", str(exc))
    st.size = len(raw)
    try:
        st.version, st.rec_size, st.header_count = parse_data_header(raw, path)
    except DataFileError as exc:
        # A data file of a version this reader lacks, or none at all.
        known = len(raw) >= HEADER_BYTES and raw[:8] == DATA_MAGIC
        return st.fail("data-corrupt" if known else "data-header", str(exc))
    if st.rec_size != facts.dtype.itemsize:
        return st.fail(
            "dtype-mismatch",
            f"record size {st.rec_size} does not match the dataset dtype's "
            f"itemsize {facts.dtype.itemsize}",
        )
    if st.version >= 3:
        try:
            st.trailer = extract_recovery_trailer(raw, path)
        except DataFileError as exc:
            st.trailer_detail = str(exc)
        else:
            if st.trailer.record.particle_count != st.header_count:
                st.trailer_detail = (
                    f"trailer says {st.trailer.record.particle_count} "
                    f"particles, header says {st.header_count}"
                )
    if st.version >= DATA_VERSION_COLUMNAR:
        return _inspect_columnar(st, raw, entry, facts)

    footer = FOOTER_BYTES if st.version >= 2 else 0
    expected = HEADER_BYTES + st.header_count * st.rec_size + footer
    if len(raw) < expected if st.version >= 3 else len(raw) != expected:
        st.fail(
            "data-truncated",
            f"expected {expected} bytes for {st.header_count} particles, "
            f"found {len(raw)}",
        )
        _find_salvage(st, raw, entry, facts.dtype)
        return st
    if st.version >= 2:
        try:
            verify_data_footer(raw[:expected], path)
        except ChecksumError as exc:
            return st.fail("data-checksum", str(exc))
    payload = raw[HEADER_BYTES : expected - footer]
    boundaries = _rebuild_entry(st, payload, zlib.crc32(payload), None, facts)
    # The chunk grid is fully determined by the payload, the LOD boundaries
    # and the chunk size — recovered from whichever of the file's recorded
    # indexes survives, or the dataset's when no copy is left at all — so a
    # clean index rebuilds bit-identically and a damaged one is replaced by
    # the truth.  Unchunked files (and datasets) stay unchunked.
    recorded = [st.trailer.record.section] if st.trailer is not None else []
    if entry is not None and "section" in entry:
        recorded.insert(0, entry["section"])
    chunk_size = (
        chunk_size_of((section, st.header_count) for section in recorded)
        if recorded
        else facts.chunk_size
    )
    if chunk_size and st.header_count:
        st.section = build_chunk_entry(
            ParticleBatch.frombuffer(payload, facts.dtype),
            chunk_size,
            boundaries,
            facts.attr_names,
        ).to_section()
    return st


def _rebuild_entry(
    st: FileState, logical, payload_crc: int, codec: str | None, facts: DatasetFacts
) -> list[int]:
    """Set ``st.entry`` from its verified ``logical`` rows (``payload_crc``
    covers the stored payload); returns the per-file LOD boundaries its
    prefix checksums sit at."""
    boundaries = prefix_checksum_boundaries(st.header_count, facts.lod_base, facts.lod_scale)
    prefixes = payload_prefix_checksums(logical, st.rec_size, boundaries)
    st.entry = want_entry(payload_crc, prefixes, codec)
    return boundaries


def _inspect_columnar(
    st: FileState, raw: bytes, entry: dict | None, facts: DatasetFacts
) -> FileState:
    """Classify a columnar (v4) file from its raw bytes, at *segment*
    granularity, against the first recorded copy of its chunk index (the
    trailer's, then the table's) under which it verifies; one with damaged
    or missing tail segments is salvaged.  A valid file's rebuilt entry
    carries the encoded-payload CRC, logical prefix CRCs and codec, and its
    section the segment descriptors."""
    copies = []
    if st.trailer is not None:
        copies.append((st.trailer.record.section, st.trailer.codec))
    if entry and entry.get("section"):
        copies.append((entry["section"], entry.get("codec")))
    check = _verify_columnar(raw, copies, st.header_count, facts.dtype, st.path)
    if check.rows is None:
        st.fail(check.code, *check.details)
        if ISSUES[check.code].fix == "salvage":
            _find_salvage(st, raw, entry, facts.dtype, check.index, check.codec)
        return st
    stored = check.index
    assert stored is not None  # a verified file verified against an index
    boundaries = _rebuild_entry(
        st,
        np.ascontiguousarray(check.rows).tobytes(),
        zlib.crc32(raw[HEADER_BYTES : HEADER_BYTES + check.enc_len]),
        check.codec,
        facts,
    )
    # Regraft the chunk geometry from the decoded payload (the truth) and
    # keep the verified stored segment descriptors — same partition, so
    # they line up one-to-one.  A geometry whose partition no longer
    # matches keeps the stored index wholesale (it verified byte-level).
    geo = build_chunk_entry(
        ParticleBatch(check.rows), int(stored.counts.max()), boundaries, facts.attr_names
    )
    if np.array_equal(geo.starts, stored.starts) and np.array_equal(
        geo.counts, stored.counts
    ):
        geo.segments = stored.segments
        stored = geo
    st.section = stored.to_section()
    return st


@dataclass
class _ColumnarCheck:
    """What verifying a columnar (v4) file image against its recorded chunk
    index established (see :func:`_verify_columnar`)."""

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


def _verify_columnar(raw: bytes, copies, count: int, dtype, path: str) -> _ColumnarCheck:
    """Verify a v4 file image against the first recorded copy of its chunk
    index under which it verifies.

    ``copies`` are ``(section, codec)`` pairs, most trusted first — the
    trailer's and the table's.  Either may lie while CRC-valid, and a lying
    copy must cost a repairable index issue, not a verdict on the payload;
    so the payload is condemned (first copy's failure) only when no copy
    verifies it.  Damage is pinpointed at *segment* granularity.
    """
    first: _ColumnarCheck | None = None
    for section, codec in copies:
        if not section and count:
            continue
        check = _ColumnarCheck(codec=codec or "none")
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
    return first or _ColumnarCheck(
        code="data-corrupt",
        details=[
            "columnar file has no usable segment descriptors "
            "(recovery trailer and table section both lost)"
        ],
    )


def _find_salvage(
    st: FileState,
    raw: bytes,
    entry: dict | None,
    dtype,
    index: FileChunkIndex | None = None,
    codec: str | None = None,
) -> None:
    """The longest prefix of a torn file whose logical rows — a row file's
    payload, a columnar file's leading chunks under ``index`` that decode —
    verify against the committed per-LOD prefix checksums (the trailer's if
    nothing committed the file).  Levels-are-subsets makes it a valid coarse
    representation; chunks never straddle LOD boundaries, so a columnar
    prefix is whole chunks whose segment offsets stay valid."""
    recorded = entry or (st.trailer.checksum_entry if st.trailer is not None else {})
    payload, parts = memoryview(raw)[HEADER_BYTES:], []
    for k in range(len(index) if index is not None else 0):
        try:
            parts.append(decode_columnar_payload(payload, index[k : k + 1], codec, dtype, st.path))
        except (ChecksumError, DataFileError):
            break
    logical = payload if index is None else b"".join(p.tobytes() for p in parts)
    prefixes: list[list[int]] = []
    crc, pos = 0, 0
    for count, stored in recorded.get("prefixes", []):
        count, stored = int(count), int(stored)
        if count * st.rec_size > len(logical):
            break
        crc = zlib.crc32(logical[pos * st.rec_size : count * st.rec_size], crc)
        pos = count
        if crc != stored:
            break
        prefixes.append([count, crc])
    if not prefixes:
        return
    (kept, crc), section = prefixes[-1], b""
    if index is not None:
        ends = np.cumsum(index.counts)
        k = int(np.searchsorted(ends, kept)) + 1
        if ends[k - 1] != kept:
            return  # a boundary not chunk-aligned
        crc = zlib.crc32(payload[: columnar_payload_length(index[:k])])
        section = index[:k].to_section()
    st.salvage = (kept, want_entry(crc, prefixes, codec), section)


def _donor_trailer(ds: Dataset, paths) -> RecoveryTrailer | None:
    """The first recovery trailer among ``paths`` carrying the dataset facts
    (dtype, LOD parameters, attribute names) most readable trailers share —
    ranged reads of each file's tail only: where dataset-wide facts come
    from when the manifest or the table is lost.  A tie goes to the facts
    read first; files whose trailers disagree are then ``trailer-mismatch``
    against what settles."""
    votes: dict[tuple, list[RecoveryTrailer]] = {}
    for path in paths:
        with suppress(BackendError, DataFileError):
            t = ds.retry.call(read_recovery_trailer, ds.backend, path, recorder=ds.recorder)
            facts = (
                repr(t.dtype_descr), t.lod_base, t.lod_scale, t.lod_heuristic,
                t.lod_seed, t.attr_names,
            )
            votes.setdefault(facts, []).append(t)
    return max(votes.values(), key=len)[0] if votes else None


def _survey(ds: Dataset, report: ScrubReport) -> Survey:
    """Read the dataset once for scrub and repair alike: chain, manifest,
    table, inventory, facts and one inspection per inventory file (fanned
    out on the dataset's executor); adds the dataset-level issues."""
    backend = ds.backend
    sv, referenced = _scrub_chain(backend, report)
    manifest_path, meta_path = sv.target.manifest_path, sv.target.meta_path

    # 1. Manifest — the commit marker; the dtype and LOD facts.
    if not backend.exists(manifest_path):
        report.add(manifest_path, "manifest-missing", "no commit marker: write never completed")
    else:
        try:
            sv.manifest = sv.target.manifest or Manifest.read(
                backend, manifest_path, actor=ds.actor
            )
        except FormatError as exc:
            report.add(manifest_path, "manifest-corrupt", str(exc))

    # 2. Spatial metadata table.
    if not backend.exists(meta_path):
        report.add(meta_path, "metadata-missing", "spatial metadata table absent")
    else:
        try:
            sv.raw_meta = bytes(backend.read_file(meta_path))
            sv.metadata = SpatialMetadata.from_bytes(sv.raw_meta)
        except BackendError as exc:
            report.add(meta_path, "metadata-unreadable", str(exc))
        except ChecksumError as exc:
            report.add(meta_path, "metadata-checksum", str(exc))
        except MetadataError as exc:
            report.add(meta_path, "metadata-corrupt", str(exc))
        else:
            sv.records = {r.file_path: r for r in sv.metadata.records}
            report.bytes_verified += len(sv.raw_meta)
    manifest, metadata = sv.manifest, sv.metadata

    # 3. Manifest <-> metadata cross-checks.
    if manifest is not None and metadata is not None:
        if manifest.num_files != len(metadata.records):
            report.add(
                meta_path,
                "file-count-mismatch",
                f"manifest says {manifest.num_files} files, "
                f"table has {len(metadata.records)}",
            )
        if manifest.total_particles != metadata.total_particles:
            report.add(
                meta_path,
                "particle-count-mismatch",
                f"manifest says {manifest.total_particles} particles, "
                f"table sums to {metadata.total_particles}",
            )
        try:
            check_table_crc(manifest.spatial_meta_crc32, metadata, meta_path)
        except MetadataChecksumError as exc:
            report.add(meta_path, "metadata-crc-mismatch", str(exc))

    # 4. The inventory: every file the target names, plus every file in
    #    data/ that neither another retained generation references nor a
    #    dropped generation's namespace holds.
    named = set(sv.records) | set(manifest.checksums if manifest is not None else ())
    try:
        listed = {f"data/{n}" for n in backend.listdir("data")} - referenced - named
    except BackendError:
        listed = set()
    dropped_ns = tuple(f"data/g{g}_" for g in sv.dropped)
    sv.stray = sorted((p for p in listed if p.startswith(dropped_ns)), key=natural_key)
    inventory = sorted(named | listed.difference(sv.stray), key=natural_key)

    # 5. Dataset-wide facts, settled once before any file is inspected:
    #    from the manifest and the table when they survived, else from the
    #    recovery trailers, by majority.
    donor = None
    if manifest is None or metadata is None:
        donor = _donor_trailer(ds, inventory)
        if donor is None:
            lost = "spatial.meta" if metadata is None else "manifest.json"
            sv.unsettled = (
                f"{lost} is lost and no data file carries a readable "
                "recovery trailer (pre-v3 dataset?) — cannot rebuild"
            )
            return sv
    try:
        facts = sv.facts = settle_facts(manifest, metadata, donor)
    except FormatError as exc:
        sv.unsettled = f"recovery trailer has a bad dtype: {exc}"
        return sv

    # 6. One inspection per inventory file; states merge back in order.
    tasks = [
        (lambda child, p=path: inspect_file(ds, p, sv.entry(p), facts, child))
        for path in inventory
    ]
    for outcome in ds.executor.run(tasks, ds.recorder):
        if outcome.recorder is not None:
            ds.recorder.merge(outcome.recorder)
        if outcome.error is not None:
            raise outcome.error
        sv.files[outcome.value.path] = outcome.value
    return sv


def _check_file(sv: Survey, st: FileState, report: ScrubReport) -> None:
    """Add to ``report`` one inspected file's own damage and where its
    committed state — table record, manifest entry, trailer — differs from
    what its payload rebuilds."""
    path = st.path
    if st.code == "data-missing":
        report.add(path, st.code, st.detail)
        return
    report.files_checked += 1
    if st.code == "data-unreadable":  # unread, so not even quarantine can move it
        report.add(path, st.code, st.detail)
        return
    unplaced = "data-orphan" if sv.committed(path) is None else "data-unrecorded"
    ref = sv.records.get(path)
    if sv.metadata is not None and ref is None:
        report.add(
            path,
            unplaced,
            "not referenced by any generation's spatial table"
            if unplaced == "data-orphan"
            else "the manifest names it but spatial.meta does not",
        )
        return
    if ref is not None and st.version and st.header_count != ref.particle_count:
        report.add(
            path,
            "count-mismatch",
            f"header says {st.header_count} particles, "
            f"spatial.meta says {ref.particle_count}",
        )
    for detail in st.details:  # the payload's own verdict, against its header
        report.add(path, st.code, detail)
    rec = sv.placed(st) if st.entry is not None else None
    if rec is None:
        if ref is None and st.entry is not None:  # no table, no usable trailer
            own = st.trailer if not st.trailer_detail else None
            report.add(
                path,
                unplaced,
                f"spatial.meta lost and no usable trailer ({st.trailer_detail or 'none present'})"
                if own is None
                else f"trailer names aggregator {own.record.agg_rank} "
                f"({own.record.file_path}), contradicting its own path",
            )
        return
    report.bytes_verified += st.size

    # A record without a chunk index (a legacy table's) stays without one.
    if rec.section and rec.section != st.section:
        # A bad chunk index silently turns pruned reads wrong.
        report.add(
            path,
            "chunk-index-mismatch",
            "recorded chunk index disagrees with the one the payload rebuilds",
        )
    # A version-1 manifest commits no checksums.
    if sv.manifest is not None and sv.manifest.spatial_meta_crc32 is not None:
        have, want = sv.manifest.checksums.get(path), st.entry
        if have is None:
            report.add(path, "manifest-checksum-mismatch", "the manifest has no entry for the file")
        elif have != want:
            key = next(k for k in (*want, *have) if have.get(k) != want.get(k))
            report.add(
                path,
                "prefix-checksum-mismatch" if key == "prefixes" else "manifest-checksum-mismatch",
                f"manifest entry's {key} disagrees with the data file",
            )
    if st.version >= 3:
        assert sv.facts is not None  # files are inspected only under facts
        if st.trailer is None:
            report.add(path, "trailer-damaged", st.trailer_detail)
        elif st.trailer != want_trailer(replace(rec, section=st.section), st.entry, sv.facts):
            report.add(
                path,
                "trailer-mismatch",
                "recovery trailer disagrees with the one repair would write "
                "from spatial.meta, the manifest and the payload",
            )


def scrub_dataset(source: Dataset | FileBackend) -> ScrubReport:
    """Verify every checksum/header/count invariant of one dataset.

    The survey reads the dataset once (the per-file inspections on the
    dataset's executor); the per-file comparisons then run in inventory
    order, so the result is deterministic.  The survey rides along on the
    report for :func:`~repro.core.repair.repair_dataset`.
    """
    ds = as_dataset(source)
    report = ScrubReport()
    report.complete = dataset_is_complete(ds)
    report.quarantined = [
        p[len(QUARANTINE_DIR) + 1 :] for p in walk_files(ds.backend, QUARANTINE_DIR)
    ]
    sv = report.survey = _survey(ds, report)
    report.generation = sv.target.generation
    if sv.unsettled:
        lost = sv.target.meta_path if sv.metadata is None else sv.target.manifest_path
        report.add(lost, "facts-unsettled", sv.unsettled)
    for st in sv.files.values():
        _check_file(sv, st, report)
    return report
