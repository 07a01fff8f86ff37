"""Dataset scrubbing: verify every on-disk invariant and report damage.

A scrub walks one dataset bottom-up and checks everything the format
guarantees:

* the manifest parses and its version is supported;
* the spatial metadata table parses whole, every CRC it carries matches
  (a version-6 table's head and each chunk section), and the manifest's
  recorded ``spatial_meta_crc32`` agrees with the bytes on disk;
* every data file the table or the manifest names exists, has a valid
  header, the header's particle count matches the table's, the byte length
  is exact, the v2 footer CRC (v4: every segment CRC) matches, the
  manifest's payload and per-LOD prefix checksums and the table's chunk
  index recompute from the payload, and a v3+ recovery trailer equals —
  every field of it — the one repair would write (:func:`want_trailer`);
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
Every issue code has one row in :data:`ISSUES`, which says whether
:mod:`repro.core.repair` resolves it *losslessly* — rebuilding
metadata/manifest state from the v3 recovery trailers, or rewriting a
damaged trailer from committed state — and what repair does about it.
Codes that are not repairable cost data to resolve: repair salvages what it
can (truncating a torn file to its longest valid LOD prefix) and
quarantines the rest.

:func:`dataset_is_complete` is the cheap commit-marker probe used by the
writer's two-phase protocol: ``manifest.json`` is written last, so a
dataset without a parseable manifest (or with manifest-referenced pieces
missing) is an aborted write, never a valid dataset.

Scrub and repair share one :class:`Survey` of the dataset, which the scrub
builds once and hands over as :attr:`ScrubReport.survey`: the target
generation, the manifest and table that survived, the dataset-wide facts,
the file inventory, and one :func:`inspect_file` state per inventory file
(a single read of its bytes under the dataset's retry policy).  Scrub
compares those states with the committed record and entry to name issues;
repair plans from the same survey and issues without reading the dataset
again, so a file scrub passes is one repair leaves alone, and vice versa.

Both entry points accept a :class:`~repro.dataset.Dataset` (or anything
:func:`~repro.dataset.as_dataset` coerces) and run the per-file
inspections — the expensive part of a scrub — on the dataset's
:class:`~repro.io.executor.IoExecutor`.  States merge back in inventory
order, so the final :class:`ScrubReport` is identical whichever executor
ran the scrub.
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
    "ISSUES",
    "QUARANTINE_DIR",
    "ScrubIssue",
    "ScrubReport",
    "scrub_dataset",
    "dataset_is_complete",
]


class IssueKind(NamedTuple):
    """How repair resolves one issue code."""

    #: Repair fixes it without losing a particle.
    repairable: bool
    #: What repair does beyond rebuilding committed state: ``pointer``
    #: (rewrite CURRENT), ``drop`` (the named generation, for ``why``),
    #: ``delete`` (the named path), ``entry`` (recompute the file's manifest
    #: entry) or ``trailer`` (rewrite the file's trailer).
    fix: str = ""
    why: str = ""


#: Every code a scrub emits, once.
ISSUES: dict[str, IssueKind] = {
    "current-corrupt": IssueKind(True, "pointer"),
    "current-missing": IssueKind(True, "pointer"),
    "current-dangling": IssueKind(True, "pointer"),
    "chain-unresolvable": IssueKind(False),
    # Without the dataset-wide facts no file can be inspected or rebuilt.
    "facts-unsettled": IssueKind(False),
    "generation-damaged": IssueKind(
        True, "drop", "fails verification and is not the repair target"
    ),
    "generation-mismatch": IssueKind(
        True, "drop", "embedded generation contradicts its filename"
    ),
    "generation-ahead": IssueKind(
        True, "drop", "crashed before its CURRENT flip (never committed)"
    ),
    "generation-residue": IssueKind(True, "delete"),
    "manifest-missing": IssueKind(True),
    "manifest-corrupt": IssueKind(True),
    "metadata-missing": IssueKind(True),
    "metadata-unreadable": IssueKind(True),
    # Lossless to rebuild: every record survives in its file's trailer.
    "metadata-checksum": IssueKind(True),
    "metadata-corrupt": IssueKind(True),
    "file-count-mismatch": IssueKind(True),
    "particle-count-mismatch": IssueKind(True),
    "metadata-crc-mismatch": IssueKind(True),
    "data-missing": IssueKind(False),
    "data-unreadable": IssueKind(False),
    "data-header": IssueKind(False),
    "data-corrupt": IssueKind(False),
    "dtype-mismatch": IssueKind(False),
    "data-truncated": IssueKind(False),
    "data-checksum": IssueKind(False),
    "segment-checksum": IssueKind(False),
    "count-mismatch": IssueKind(False),
    # Derived state disagreeing with verified bytes is lossless to rebuild.
    "manifest-checksum-mismatch": IssueKind(True, "entry"),
    "prefix-checksum-mismatch": IssueKind(True, "entry"),
    "chunk-index-mismatch": IssueKind(True, "entry"),
    "trailer-damaged": IssueKind(True, "trailer"),
    "trailer-mismatch": IssueKind(True, "trailer"),
    # Nothing names the file: quarantining it costs no committed particle.
    "data-orphan": IssueKind(True),
    # Committed, but neither the table nor the file's trailer places it.
    "data-unrecorded": IssueKind(False),
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
    chained = [g for g in gens if g > 0]
    current: int | None = None
    current_valid = False
    has_current = backend.exists(CURRENT_PATH)
    if has_current:
        try:
            current = read_current(backend)
            current_valid = True
        except FormatError as exc:
            report.add(CURRENT_PATH, "current-corrupt", str(exc))
    elif chained:
        report.add(
            CURRENT_PATH,
            "current-missing",
            "generation manifests exist but the CURRENT pointer is absent",
        )
    if current_valid and current not in gens:
        report.add(
            CURRENT_PATH,
            "current-dangling",
            f"CURRENT names generation {current} but no such manifest exists",
        )
        current_valid = False

    sv = Survey(_target(backend, report), has_current=has_current)
    target = sv.target.generation

    def flag(g: int, code: str, detail: str) -> None:
        report.add(generation_manifest_path(g), code, detail)
        if g > 0:
            sv.dropped[g] = ISSUES[code].why

    # The committed baseline: what CURRENT says when it is trustworthy,
    # else the target.  Generations past it were never committed (an
    # append that crashed before its CURRENT flip).
    baseline = current if current_valid else target
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


def want_trailer(record: MetadataRecord, entry: dict, facts: DatasetFacts) -> RecoveryTrailer:
    """The recovery trailer of a file with table ``record`` and checksum
    ``entry`` (its ``section`` replacing the record's): what repair writes,
    and what scrub compares every trailer against."""
    return RecoveryTrailer(
        replace(record, section=entry.get("section", b"")),
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
    #: One of ``missing``, ``unreadable``, ``corrupt``, ``torn``, ``valid``.
    status: str = "missing"
    #: The scrub issue code of a damaged file, and one detail per finding.
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
    #: A valid file's checksum entry recomputed from its payload, chunk
    #: ``section`` (and columnar ``codec``) included.
    actual_entry: dict | None = None
    #: Longest prefix (in particles) verifying against the committed entry.
    salvage_count: int = 0
    salvage_crc: int = 0
    salvage_prefixes: list = field(default_factory=list)
    #: Columnar (v4) facts: the segment codec (None marks a row file) and,
    #: after salvage, the kept segment-bearing chunks as a table section.
    codec: str | None = None
    keep_section: bytes = b""

    @property
    def detail(self) -> str:
        """The whole verdict in one line."""
        if self.code == "segment-checksum":
            return (
                f"{len(self.details)} damaged column segment(s); "
                f"first: {self.details[0]}"
            )
        return self.details[0] if self.details else ""

    def fail(self, status: str, code: str, *details: str) -> FileState:
        self.status, self.code, self.details = status, code, list(details)
        return self


def inspect_file(
    ds: Dataset, path: str, entry: dict | None, facts: DatasetFacts, rec: Recorder
) -> FileState:
    """Classify one data file (v1–v4, row or columnar) from a single read
    of its bytes under the dataset's retry policy; never raises.

    ``entry`` is the file's :meth:`Survey.entry` — a copy of its chunk
    index to verify segments against, and the prefix checksums a torn file
    is salvaged against — or None when nothing committed records the file.
    A valid file gets its checksum entry recomputed from the payload;
    comparing it and the trailer with committed state is the caller's job:
    scrub reports the differences, repair rewrites them.
    """
    st = FileState(path)
    try:
        if not ds.backend.exists(path):
            return st.fail("missing", "data-missing", "committed but absent")
        raw = bytes(ds.retry.call(ds.backend.read_file, path, recorder=rec))
    except BackendError as exc:
        return st.fail("unreadable", "data-unreadable", str(exc))
    st.size = len(raw)
    try:
        st.version, st.rec_size, st.header_count = parse_data_header(raw, path)
    except DataFileError as exc:
        # A data file of a version this reader lacks, or none at all.
        known = len(raw) >= HEADER_BYTES and raw[:8] == DATA_MAGIC
        return st.fail("corrupt", "data-corrupt" if known else "data-header", str(exc))
    if st.rec_size != facts.dtype.itemsize:
        return st.fail(
            "corrupt",
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
            "torn",
            "data-truncated",
            f"expected {expected} bytes for {st.header_count} particles, "
            f"found {len(raw)}",
        )
        _find_salvage_prefix(st, raw, entry)
        return st
    if st.version >= 2:
        try:
            verify_data_footer(raw[:expected], path)
        except ChecksumError as exc:
            return st.fail("corrupt", "data-checksum", str(exc))
    payload = raw[HEADER_BYTES : expected - footer]
    actual, boundaries = _recompute_entry(st, payload, zlib.crc32(payload), facts)
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
        actual["section"] = build_chunk_entry(
            ParticleBatch.frombuffer(payload, facts.dtype),
            chunk_size,
            boundaries,
            facts.attr_names,
        ).to_section()
    return st


def _recompute_entry(
    st: FileState, logical, payload_crc: int, facts: DatasetFacts
) -> tuple[dict, list[int]]:
    """Mark ``st`` valid with the checksum entry of its ``logical`` rows
    (``payload_crc`` covers the stored payload); returns that entry and the
    per-file LOD boundaries its prefixes sit at."""
    boundaries = prefix_checksum_boundaries(st.header_count, facts.lod_base, facts.lod_scale)
    prefixes = payload_prefix_checksums(logical, st.rec_size, boundaries)
    actual = {"payload_crc32": payload_crc, "prefixes": [[c, crc] for c, crc in prefixes]}
    st.status, st.actual_entry = "valid", actual
    return actual, boundaries


def _inspect_columnar(
    st: FileState, raw: bytes, entry: dict | None, facts: DatasetFacts
) -> FileState:
    """Classify a columnar (v4) file from its raw bytes.

    Verification runs at *segment* granularity against the first recorded
    copy of the chunk index (the trailer's, then the table's) under which
    the file verifies (:func:`_verify_columnar`), and a file with damaged or
    missing tail segments is treated as torn — salvage keeps whole leading
    chunks up to the longest LOD boundary whose decoded logical prefix still
    verifies.  A valid file's recomputed v4 entry carries the encoded-payload
    CRC, logical prefix CRCs, segment-bearing section and codec.
    """
    copies = []
    if st.trailer is not None:
        copies.append((st.trailer.record.section, st.trailer.codec))
    if entry and entry.get("section"):
        copies.append((entry["section"], entry.get("codec")))
    check = _verify_columnar(raw, copies, st.header_count, facts.dtype, st.path)
    st.codec = check.codec
    if check.rows is None:
        if check.index is not None and check.code in ("data-truncated", "segment-checksum"):
            st.fail("torn", check.code, *check.details)
            _find_columnar_salvage(st, raw, entry, facts.dtype, check.index, check.codec)
        else:
            st.fail("corrupt", check.code, *check.details)
        return st
    stored = check.index
    assert stored is not None  # a verified file verified against an index
    actual, boundaries = _recompute_entry(
        st,
        np.ascontiguousarray(check.rows).tobytes(),
        zlib.crc32(raw[HEADER_BYTES : HEADER_BYTES + check.enc_len]),
        facts,
    )
    actual["codec"] = check.codec
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
    actual["section"] = stored.to_section()
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


def _find_columnar_salvage(
    st: FileState,
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
    prefixes = _verified_prefixes(
        np.concatenate(parts).tobytes(), st.rec_size, eff.get("prefixes", [])
    )
    kept = prefixes[-1][0] if prefixes else 0
    ends = np.cumsum(index.counts)
    k = int(np.searchsorted(ends, kept)) + 1
    if not kept or ends[k - 1] != kept:
        return  # nothing verifies, or a boundary not chunk-aligned
    st.salvage_count = kept
    st.salvage_crc = zlib.crc32(payload[: columnar_payload_length(index[:k])])
    st.salvage_prefixes = prefixes
    st.keep_section = index[:k].to_section()


def _find_salvage_prefix(st: FileState, raw: bytes, entry: dict | None) -> None:
    """Longest prefix of a torn file that verifies against the manifest's
    per-LOD prefix checksums.  Levels-are-subsets makes that prefix a valid
    coarse representation — exactly what truncation keeps."""
    if entry is None:
        return
    prefixes = _verified_prefixes(
        memoryview(raw)[HEADER_BYTES:], st.rec_size, entry.get("prefixes", [])
    )
    if prefixes:
        st.salvage_count, st.salvage_crc = prefixes[-1]
        st.salvage_prefixes = prefixes


def _verified_prefixes(logical, rec_size: int, recorded) -> list[list[int]]:
    """The leading ``[count, crc32]`` pairs of the ``recorded`` per-LOD
    prefix checksums that the ``logical`` row bytes (possibly cut short)
    still reproduce."""
    out: list[list[int]] = []
    crc, pos = 0, 0
    for count, stored in recorded:
        count, stored = int(count), int(stored)
        if count * rec_size > len(logical):
            break
        crc = zlib.crc32(logical[pos * rec_size : count * rec_size], crc)
        pos = count
        if crc != stored:
            break
        out.append([count, crc])
    return out


def _donor_trailer(ds: Dataset, paths) -> RecoveryTrailer | None:
    """The first recovery trailer among ``paths`` that reads and checksums
    (ranged reads of the file's tail only): where dataset-wide facts come
    from when the manifest or the table is lost."""
    for path in paths:
        with suppress(BackendError, DataFileError):
            return ds.retry.call(read_recovery_trailer, ds.backend, path, recorder=ds.recorder)
    return None


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
        except BackendError as exc:
            report.add(meta_path, "metadata-unreadable", str(exc))
        if sv.raw_meta is not None:
            try:
                sv.metadata = SpatialMetadata.from_bytes(sv.raw_meta)
                sv.records = {r.file_path: r for r in sv.metadata.records}
                report.bytes_verified += len(sv.raw_meta)
            except ChecksumError as exc:
                report.add(meta_path, "metadata-checksum", str(exc))
            except MetadataError as exc:
                report.add(meta_path, "metadata-corrupt", str(exc))
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
    #    first readable recovery trailer (identical across the files).
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
    """Compare one inspected file with the committed record and checksum
    entry, adding what disagrees to ``report``."""
    path = st.path
    if st.status == "missing":
        report.add(path, st.code, st.detail)
        return
    report.files_checked += 1
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
    elif st.actual_entry is None:  # not valid: the inspection's own verdict
        for detail in st.details:
            report.add(path, st.code, detail)
        return
    actual = st.actual_entry
    rec = sv.placed(st)
    if rec is None or actual is None:
        if ref is None:  # the table is lost and the trailer cannot stand in
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

    entry = sv.entry(path)
    if entry is not None:
        if int(entry.get("payload_crc32", -1)) != actual["payload_crc32"]:
            report.add(
                path,
                "manifest-checksum-mismatch",
                "manifest payload_crc32 disagrees with the data file",
            )
        elif [list(p) for p in entry.get("prefixes", [])] != actual["prefixes"]:
            report.add(
                path,
                "prefix-checksum-mismatch",
                "per-LOD prefix checksums disagree with the data file",
            )
        elif rec.section and rec.section != actual.get("section", b""):
            # A bad chunk index silently turns pruned reads wrong.
            report.add(
                path,
                "chunk-index-mismatch",
                "recorded chunk index disagrees with the one the payload rebuilds",
            )
    if st.version >= 3:
        assert sv.facts is not None  # files are inspected only under facts
        if st.trailer is None:
            report.add(path, "trailer-damaged", st.trailer_detail)
        elif st.trailer != want_trailer(rec, actual, sv.facts):
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
    report.quarantined = _quarantine_inventory(ds.backend)
    sv = report.survey = _survey(ds, report)
    report.generation = sv.target.generation
    if sv.unsettled:
        lost = sv.target.meta_path if sv.metadata is None else sv.target.manifest_path
        report.add(lost, "facts-unsettled", sv.unsettled)
    for st in sv.files.values():
        _check_file(sv, st, report)
    return report
