"""The binary spatial metadata table (paper Fig. 4, plus extensions).

Rank 0 writes one ``spatial.meta`` file per dataset.  Each record describes
one data file: the id of its aggregation box, the aggregator rank (the data
file name derives from it), and the bounding box of the particles inside.
The boxes are unique and non-overlapping by construction of the aggregation
grid — a reader answering a box query intersects its query against this
table and opens only the matching files.

Extensions over the paper's figure, both backwards-compatible:

* per-record particle count — required to compute LOD prefix lengths, and a
  cheap integrity check;
* optional per-record, per-attribute (min, max) pairs — the future-work
  index of §3.5 used by attribute-range queries to prune files.

Layout (little-endian)::

    header:  magic "SPIOMETA" | u32 version | u32 num_records
             u32 num_attrs | u32 reserved
             num_attrs x (u32 name_len | name utf-8)
    records: u64 box_id | u64 agg_rank | [u64 gen (version >= 4)]
             u64 particle_count | f64 lo[3] | f64 hi[3]
             num_attrs x (f64 min | f64 max)
             [u64 section_len | chunk section (version 5)]
    footer:  magic "MCRC" | u32 CRC32 of header + records   (version >= 3)

Version 2 tables (no footer) remain readable; version 3 adds the
whole-table checksum so a flipped bit in any record is detected before a
reader prunes files against garbage bounds.  Version 4 adds the per-record
``gen`` field for generation-chained datasets (append/compaction): records
from different generations may cover overlapping regions and reuse
aggregator ranks, so uniqueness is keyed on ``(gen, agg_rank)`` and the
disjoint-bounds invariant holds per generation.  A table whose records are
all generation 0 still serialises as version 3, byte-identical to
pre-generation output.

Version 5 gives every record its data file's chunk index as a packed section
(:meth:`repro.format.chunks.FileChunkIndex.to_section`; length 0 = none), so
opening the dataset-level copy of the index costs O(files): parsing only
frames the sections.  It is written only when some record carries one — a
table without chunk indexes keeps serialising byte-identically as v3/v4.

Every data file's recovery trailer stores its own record with the same
encoder (:func:`pack_record`, v5 layout, after the attribute names of
:func:`pack_names`), so the two copies of a record are equal byte for byte.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.domain.box import Box
from repro.errors import DataFileError, DomainError, MetadataChecksumError, MetadataError
from repro.io.backend import FileBackend

META_MAGIC = b"SPIOMETA"
META_VERSION = 3
#: Version written when any record belongs to a generation > 0.
META_VERSION_GEN = 4
#: Version written when any record carries a chunk section.
META_VERSION_CHUNKS = 5
META_PATH = "spatial.meta"

#: Versions this reader understands (2 = pre-checksum legacy).
SUPPORTED_META_VERSIONS = (2, 3, 4, 5)

_HEADER = struct.Struct("<8sIIII")
_RECORD_FIXED = struct.Struct("<QQQ6d")
_RECORD_FIXED_GEN = struct.Struct("<QQQQ6d")
_META_FOOTER = struct.Struct("<4sI")
_SECTION_LEN = struct.Struct("<Q")
META_FOOTER_MAGIC = b"MCRC"


def data_file_name(agg_rank: int, gen: int = 0) -> str:
    """Data files are named from the aggregator's rank, as in Fig. 4
    ("Agg rank is used to derive the name of the data file").

    Generation-chained datasets (append/compaction) namespace the file per
    generation — ``data/gN_file_R.pbin`` — so no committed byte is ever
    overwritten in place; generation 0 keeps the classic name.
    """
    if agg_rank < 0:
        raise DataFileError(f"aggregator rank must be >= 0, got {agg_rank}")
    if gen < 0:
        raise DataFileError(f"generation must be >= 0, got {gen}")
    if gen == 0:
        return f"data/file_{agg_rank}.pbin"
    return f"data/g{gen}_file_{agg_rank}.pbin"


@dataclass
class MetadataRecord:
    """One data file's entry in the spatial metadata table."""

    box_id: int
    agg_rank: int
    particle_count: int
    bounds: Box
    attr_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Generation that wrote this record's data file (0 = classic layout).
    gen: int = 0
    #: The data file's packed chunk index (see FileChunkIndex.to_section).
    section: bytes = field(default=b"", repr=False)

    @cached_property
    def file_path(self) -> str:
        """The data file's backend path, named once per record (nothing
        reassigns ``agg_rank`` or ``gen`` after construction)."""
        return data_file_name(self.agg_rank, self.gen)


def pack_names(names) -> bytes:
    """``u32 name_len | name utf-8`` per attribute name."""
    encoded = [name.encode("utf-8") for name in names]
    return b"".join(struct.pack("<I", len(e)) + e for e in encoded)


def unpack_names(raw, pos: int, count: int) -> tuple[list[str], int]:
    """Inverse of :func:`pack_names` at ``raw[pos:]``; returns the names and
    the position after them."""
    names: list[str] = []
    for _ in range(count):
        if pos + 4 > len(raw):
            raise MetadataError("metadata truncated in attribute names")
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if pos + name_len > len(raw):
            raise MetadataError("metadata truncated in attribute names")
        try:
            names.append(bytes(raw[pos : pos + name_len]).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MetadataError(f"metadata attribute name is not utf-8: {exc}") from exc
        pos += name_len
    return names, pos


def pack_record(
    rec: MetadataRecord, attr_names, version: int = META_VERSION_CHUNKS
) -> bytes:
    """One record in table ``version``'s layout, attribute ranges in
    ``attr_names`` order.  A data file's recovery trailer stores its record
    with this same function (always the v5 layout)."""
    if version >= META_VERSION_GEN:
        fixed = _RECORD_FIXED_GEN.pack(
            rec.box_id, rec.agg_rank, rec.gen, rec.particle_count,
            *rec.bounds.lo, *rec.bounds.hi,
        )
    else:
        fixed = _RECORD_FIXED.pack(
            rec.box_id, rec.agg_rank, rec.particle_count,
            *rec.bounds.lo, *rec.bounds.hi,
        )
    parts = [fixed]
    parts += [struct.pack("<2d", *rec.attr_ranges[name]) for name in attr_names]
    if version >= META_VERSION_CHUNKS:
        parts += [_SECTION_LEN.pack(len(rec.section)), rec.section]
    return b"".join(parts)


def unpack_record(
    raw, pos: int, names, version: int = META_VERSION_CHUNKS, i: int = 0
) -> tuple[MetadataRecord, int]:
    """Inverse of :func:`pack_record` at ``raw[pos:]`` (record ``i`` of a
    table); returns the record and the position after it.  The chunk
    section is framed only: it is landed (and validated) when a query first
    plans against its file."""
    rec_struct = _RECORD_FIXED_GEN if version >= META_VERSION_GEN else _RECORD_FIXED
    if pos + rec_struct.size + 16 * len(names) > len(raw):
        raise MetadataError(f"metadata truncated at record {i}")
    vals = rec_struct.unpack_from(raw, pos)
    pos += rec_struct.size
    if version >= META_VERSION_GEN:
        box_id, agg_rank, gen, count = vals[:4]
    else:
        (box_id, agg_rank, count), gen = vals[:3], 0
    try:
        bounds = Box(vals[-6:-3], vals[-3:])
    except DomainError as exc:
        raise MetadataError(f"record {i} has invalid bounds: {exc}") from exc
    ranges: dict[str, tuple[float, float]] = {}
    for name in names:
        ranges[name] = struct.unpack_from("<2d", raw, pos)
        pos += 16
    section = b""
    if version >= META_VERSION_CHUNKS:
        end = pos + _SECTION_LEN.size
        size = _SECTION_LEN.unpack_from(raw, pos)[0] if end <= len(raw) else -1
        if not 0 <= size <= len(raw) - end:
            raise MetadataError(f"metadata truncated in the chunk section of record {i}")
        section, pos = bytes(raw[end : end + size]), end + size
    record = MetadataRecord(
        int(box_id), int(agg_rank), int(count), bounds, ranges,
        gen=int(gen), section=section,
    )
    return record, pos


class SpatialMetadata:
    """The full table: an ordered list of records plus attribute names."""

    def __init__(self, records: list[MetadataRecord], attr_names: tuple[str, ...] = ()):
        self.records = list(records)
        self.attr_names = tuple(attr_names)
        #: Lazy structure-of-arrays ``(lo[N,3], hi[N,3])`` view of the record
        #: bounds, built on first spatial query so ``files_intersecting`` is
        #: one numpy broadcast instead of a Python loop over records.
        self._bounds_soa: tuple[np.ndarray, np.ndarray] | None = None
        self._validate()

    def _validate(self) -> None:
        seen_ids: set[int] = set()
        seen_files: set[tuple[int, int]] = set()
        for rec in self.records:
            if rec.box_id in seen_ids:
                raise MetadataError(f"duplicate box id {rec.box_id}")
            key = (rec.gen, rec.agg_rank)
            if key in seen_files:
                raise MetadataError(
                    f"duplicate aggregator rank {rec.agg_rank} in generation "
                    f"{rec.gen} — two records would map to the same data file"
                )
            seen_ids.add(rec.box_id)
            seen_files.add(key)
            missing = set(self.attr_names) - set(rec.attr_ranges)
            if missing:
                raise MetadataError(
                    f"record {rec.box_id} missing attr ranges for {sorted(missing)}"
                )
        # Pairwise overlap validation is quadratic in memory (one N x N
        # mask); skip it for very large tables (functional datasets have at
        # most a few hundred files).  Disjointness only holds within one
        # generation — appended generations legitimately cover the same
        # spatial region again.
        n = len(self.records)
        if n > 2048:
            return
        lo, hi = self.bounds_soa()
        gens = np.fromiter((rec.gen for rec in self.records), np.int64, n)
        # overlap[i, j] for i < j: same generation, and Box.intersects'
        # open-interval test on every axis.
        overlap = np.triu(gens[:, None] == gens[None, :], k=1)
        for axis in range(3):
            overlap &= lo[:, None, axis] < hi[None, :, axis]
            overlap &= lo[None, :, axis] < hi[:, None, axis]
        if overlap.any():
            # argmax finds the first pair in row-major order: lowest i, then j.
            i, j = divmod(int(np.argmax(overlap)), n)
            a, b = self.records[i], self.records[j]
            raise MetadataError(
                f"bounding boxes of files {a.agg_rank} and {b.agg_rank} "
                f"overlap ({a.bounds} vs {b.bounds}) — the aggregation "
                "grid guarantees disjoint regions"
            )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_particles(self) -> int:
        return sum(r.particle_count for r in self.records)

    def domain(self) -> Box:
        """Bounding box over all records (the populated domain)."""
        if not self.records:
            raise MetadataError("empty metadata table has no domain")
        return Box.bounding(r.bounds for r in self.records)

    # -- queries -----------------------------------------------------------

    def bounds_soa(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo[N,3], hi[N,3])`` float64 arrays of all record bounds,
        built once and cached (record order preserved)."""
        if self._bounds_soa is None:
            n = len(self.records)
            lo = np.empty((n, 3), dtype=np.float64)
            hi = np.empty((n, 3), dtype=np.float64)
            for i, rec in enumerate(self.records):
                lo[i] = rec.bounds.lo
                hi[i] = rec.bounds.hi
            self._bounds_soa = (lo, hi)
        return self._bounds_soa

    def files_intersecting(self, box: Box) -> list[MetadataRecord]:
        """Records whose bounds overlap ``box`` — the read-side file pruner.

        One broadcast comparison against the cached SoA bounds; the open
        interval test matches :meth:`Box.intersects` exactly, so the result
        list is identical (order included) to filtering record-by-record.
        """
        if not self.records:
            return []
        lo, hi = self.bounds_soa()
        qlo = np.asarray(box.lo, dtype=np.float64)
        qhi = np.asarray(box.hi, dtype=np.float64)
        mask = (lo < qhi).all(axis=1) & (qlo < hi).all(axis=1)
        return [self.records[i] for i in np.flatnonzero(mask)]

    def files_in_attr_range(
        self, attr: str, lo: float, hi: float
    ) -> list[MetadataRecord]:
        """Records whose [min, max] for ``attr`` overlaps [lo, hi]."""
        if attr not in self.attr_names:
            raise MetadataError(
                f"attribute {attr!r} not indexed; table has {self.attr_names}"
            )
        out = []
        for rec in self.records:
            amin, amax = rec.attr_ranges[attr]
            if amax >= lo and amin <= hi:
                out.append(rec)
        return out

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        # An all-generation-0 table serialises as version 3, byte-identical
        # to pre-generation writers (repair rebuilds depend on that).
        version = (
            META_VERSION_CHUNKS if any(r.section for r in self.records)
            else META_VERSION_GEN if any(r.gen for r in self.records)
            else META_VERSION
        )
        header = _HEADER.pack(
            META_MAGIC, version, len(self.records), len(self.attr_names), 0
        )
        parts = [header, pack_names(self.attr_names)]
        parts += [pack_record(rec, self.attr_names, version) for rec in self.records]
        body = b"".join(parts)
        return body + _META_FOOTER.pack(META_FOOTER_MAGIC, zlib.crc32(body))

    def checksum(self) -> int:
        """CRC32 of the full serialised table (footer included).

        Recorded in the manifest so the scrubber can detect a
        ``spatial.meta`` that was swapped wholesale for a different (but
        internally consistent) table.
        """
        return zlib.crc32(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SpatialMetadata":
        if len(raw) < _HEADER.size:
            raise MetadataError(f"metadata truncated: {len(raw)} bytes")
        magic, version, num_records, num_attrs, _ = _HEADER.unpack_from(raw)
        if magic != META_MAGIC:
            raise MetadataError(f"bad metadata magic {magic!r}")
        if version not in SUPPORTED_META_VERSIONS:
            raise MetadataError(f"unsupported metadata version {version}")
        if version >= 3:
            if len(raw) < _HEADER.size + _META_FOOTER.size:
                raise MetadataError(f"metadata truncated: {len(raw)} bytes")
            fmagic, stored = _META_FOOTER.unpack(raw[-_META_FOOTER.size :])
            if fmagic != META_FOOTER_MAGIC:
                raise MetadataChecksumError(
                    f"bad metadata footer magic {fmagic!r}"
                )
            actual = zlib.crc32(raw[: -_META_FOOTER.size])
            if actual != stored:
                raise MetadataChecksumError(
                    f"metadata table CRC32 mismatch — stored {stored:#010x}, "
                    f"computed {actual:#010x}"
                )
            raw = raw[: -_META_FOOTER.size]
        names, pos = unpack_names(raw, _HEADER.size, num_attrs)
        records: list[MetadataRecord] = []
        for i in range(num_records):
            rec, pos = unpack_record(raw, pos, names, version, i)
            records.append(rec)
        if pos != len(raw):
            raise MetadataError(
                f"{len(raw) - pos} trailing bytes after {num_records} records"
            )
        return cls(records, tuple(names))

    def write(self, backend: FileBackend, path: str = META_PATH, actor: int = -1) -> None:
        backend.write_file(path, self.to_bytes(), actor=actor)

    @classmethod
    def read(
        cls, backend: FileBackend, path: str = META_PATH, actor: int = -1
    ) -> "SpatialMetadata":
        try:
            raw = backend.read_file(path, actor=actor)
        except Exception as exc:
            raise MetadataError(f"cannot read spatial metadata {path!r}: {exc}") from exc
        return cls.from_bytes(raw)
