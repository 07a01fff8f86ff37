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

Layout of version 6, the one written whenever a record carries a chunk
index (little-endian)::

    header:   magic "SPIOMETA" | u32 version | u32 head_len | u64 head_offset
    sections: every record's chunk section, in record order, back to back
    head:     u32 num_records | u32 num_attrs
              num_attrs x (u32 name_len | name utf-8)
              num_records x row
              magic "MCRC" | u32 CRC32 of the header and the head before it
    row:      u64 box_id | u64 agg_rank | u64 gen | u64 particle_count
              f64 lo[3] | f64 hi[3] | num_attrs x (f64 min | f64 max)
              u64 section_offset | u64 section_len | u32 section_crc32
              u32 reserved (0)

The head is O(files), fixed-size per record, and ends the file, so
:meth:`SpatialMetadata.read` opens a dataset with two small reads (the
header, then the head) that also catch a truncated table, and parses every
row with one ``np.frombuffer``.  Each section stays in the file and is
fetched with one ranged read when a query first plans against its data file
(:func:`read_section`, via ``Dataset.chunk_index``), checked against the
CRC32 its row records.  Rewriters (append, scrub, repair, compaction) read
the whole table (:meth:`SpatialMetadata.read_whole`), which checks the head
and every section.  The manifest commits the head's CRC32
(:func:`table_crc32`); the head in turn commits every section's.

Earlier versions stay readable, parsed whole:

* version 2 — the records follow the attribute names, no checksum;
* version 3 — adds the footer ``"MCRC" | u32 CRC32`` over everything
  before it, so a flipped bit in any record is detected before a reader
  prunes files against garbage bounds;
* version 4 — adds the per-record ``u64 gen`` (after ``agg_rank``) for
  generation-chained datasets: records from different generations may
  cover overlapping regions and reuse aggregator ranks, so uniqueness is
  keyed on ``(gen, agg_rank)`` and the disjoint-bounds invariant holds per
  generation;
* version 5 — each record ends with ``u64 section_len | chunk section``
  (:meth:`repro.format.chunks.FileChunkIndex.to_section`; length 0 = none),
  so the sections sit inline and a reader had to read and CRC all of them.

A table without chunk sections still serialises as version 3 (all records
generation 0, byte-identical to pre-generation output) or version 4.

Every data file's recovery trailer stores its own record in the version-5
record layout (:func:`pack_record`, after the attribute names of
:func:`pack_names`), so the trailer keeps its own copy of the section, byte
for byte equal to the table's.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.domain.box import Box
from repro.errors import DataFileError, DomainError, MetadataChecksumError, MetadataError
from repro.io.backend import FileBackend, ReadRequest

META_MAGIC = b"SPIOMETA"
META_VERSION = 3
#: Version written when any record belongs to a generation > 0.
META_VERSION_GEN = 4
#: The record layout with an inline chunk section: version-5 tables, and
#: every recovery trailer's copy of its record.
META_VERSION_CHUNKS = 5
#: Version written when any record carries a chunk section: the sections,
#: then an O(files) head that ends the file.
META_VERSION_HEAD = 6
META_PATH = "spatial.meta"

#: Versions this reader understands (2 = pre-checksum legacy).
SUPPORTED_META_VERSIONS = (2, 3, 4, 5, 6)

_HEADER = struct.Struct("<8sIIII")
#: The version-6 header: magic | version | head_len | head_offset.
_HEADER_HEAD = struct.Struct("<8sIIQ")
_HEAD_COUNTS = struct.Struct("<II")
_LARGE_HEAD = 1 << 20
_RECORD_FIXED = struct.Struct("<QQQ6d")
_RECORD_FIXED_GEN = struct.Struct("<QQQQ6d")
_META_FOOTER = struct.Struct("<4sI")
_SECTION_LEN = struct.Struct("<Q")
META_FOOTER_MAGIC = b"MCRC"


@lru_cache(maxsize=8)
def _row_dtype(num_attrs: int) -> np.dtype:
    """One version-6 head row (see the module docstring)."""
    return np.dtype(
        [
            ("box_id", "<u8"), ("agg_rank", "<u8"), ("gen", "<u8"), ("count", "<u8"),
            ("bounds", "<f8", (2, 3)),
            ("ranges", "<f8", (num_attrs, 2)),
            ("offset", "<u8"), ("length", "<u8"), ("crc", "<u4"), ("reserved", "<u4"),
        ]
    )


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
    #: The data file's packed chunk index (see FileChunkIndex.to_section);
    #: a view into the table's bytes when parsed from a whole table.
    section: bytes | memoryview = field(default=b"", repr=False)
    #: Where a table opened by its head left the section: ``(offset,
    #: length, crc32)`` in the table file, fetched by :func:`read_section`.
    #: None when ``section`` holds it, or when there is none.
    section_ref: tuple[int, int, int] | None = field(
        default=None, repr=False, compare=False
    )

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
    section is framed only, as a slice of ``raw`` (a view when ``raw`` is a
    memoryview): it is landed (and validated) when a query first plans
    against its file."""
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
        section, pos = raw[end : end + size], end + size
    record = MetadataRecord(
        int(box_id), int(agg_rank), int(count), bounds, ranges,
        gen=int(gen), section=section,
    )
    return record, pos


class SpatialMetadata:
    """The full table: an ordered list of records plus attribute names."""

    #: What the manifest's ``spatial_meta_crc32`` must equal for the bytes
    #: this table was parsed from (see :func:`table_crc32`); None for a
    #: table built in memory.
    crc32: int | None = None

    def __init__(self, records: list[MetadataRecord], attr_names: tuple[str, ...] = ()):
        self.records = list(records)
        self.attr_names = tuple(attr_names)
        #: Lazy structure-of-arrays ``(lo[N,3], hi[N,3])`` view of the record
        #: bounds, built on first spatial query so ``files_intersecting`` is
        #: one numpy broadcast instead of a Python loop over records.
        self._bounds_soa: tuple[np.ndarray, np.ndarray] | None = None
        names = set(self.attr_names)
        for rec in self.records:
            if not names.issubset(rec.attr_ranges):
                missing = names.difference(rec.attr_ranges)
                raise MetadataError(
                    f"record {rec.box_id} missing attr ranges for {sorted(missing)}"
                )
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
        # Disjointness only holds within one generation — appended
        # generations legitimately cover the same spatial region again.
        # Skip it for very large tables (functional datasets have at most a
        # few hundred files).
        n = len(self.records)
        if n > 2048 or n < 2:
            return
        lo, hi = self.bounds_soa()
        pair = _first_overlap(lo.tolist(), hi.tolist(), [rec.gen for rec in self.records])
        if pair is not None:
            a, b = self.records[pair[0]], self.records[pair[1]]
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
        if any(rec.section_ref is not None and not rec.section for rec in self.records):
            raise MetadataError(
                "a table opened by its head holds no chunk sections; "
                "read it whole (SpatialMetadata.read_whole) to rewrite it"
            )
        if any(rec.section for rec in self.records):
            return self._head_and_sections()
        # A table without sections serialises as version 3 when every
        # record is generation 0, byte-identical to pre-generation writers,
        # else as version 4 (repair rebuilds depend on both).
        version = META_VERSION_GEN if any(r.gen for r in self.records) else META_VERSION
        header = _HEADER.pack(
            META_MAGIC, version, len(self.records), len(self.attr_names), 0
        )
        parts = [header, pack_names(self.attr_names)]
        parts += [pack_record(rec, self.attr_names, version) for rec in self.records]
        body = b"".join(parts)
        return body + _META_FOOTER.pack(META_FOOTER_MAGIC, zlib.crc32(body))

    def _head_and_sections(self) -> bytes:
        """The version-6 bytes: the header, every section, then the head."""
        records, names = self.records, pack_names(self.attr_names)
        rows = np.zeros(len(records), _row_dtype(len(self.attr_names)))
        for field_name, attr in (
            ("box_id", "box_id"), ("agg_rank", "agg_rank"), ("gen", "gen"),
            ("count", "particle_count"),
        ):
            rows[field_name] = [getattr(rec, attr) for rec in records]
        rows["bounds"] = [(rec.bounds.lo, rec.bounds.hi) for rec in records]
        if self.attr_names:
            rows["ranges"] = [
                [rec.attr_ranges[name] for name in self.attr_names] for rec in records
            ]
        lengths = [len(rec.section) for rec in records]
        rows["length"] = lengths
        rows["offset"] = np.cumsum([_HEADER_HEAD.size, *lengths[:-1]], dtype=np.uint64)
        rows["crc"] = [zlib.crc32(rec.section) for rec in records]
        head_offset = _HEADER_HEAD.size + sum(lengths)
        head_len = _HEAD_COUNTS.size + len(names) + rows.nbytes + _META_FOOTER.size
        header = _HEADER_HEAD.pack(META_MAGIC, META_VERSION_HEAD, head_len, head_offset)
        head = b"".join(
            (_HEAD_COUNTS.pack(len(records), len(self.attr_names)), names, rows.tobytes())
        )
        crc = zlib.crc32(head, zlib.crc32(header))
        footer = _META_FOOTER.pack(META_FOOTER_MAGIC, crc)
        return b"".join([header, *(rec.section for rec in records), head, footer])

    @classmethod
    def from_bytes(cls, raw) -> "SpatialMetadata":
        """Parse a whole table of any supported version, checking every
        CRC it carries; chunk sections become views of ``raw``."""
        view = memoryview(raw)
        version, num_records, num_attrs = _parse_header(view)
        if version == META_VERSION_HEAD:
            _, _, head_len, head_offset = _HEADER_HEAD.unpack_from(view)
            if head_offset + head_len != len(view):
                raise MetadataError(
                    f"metadata truncated or overlong: a {head_len}-byte head at "
                    f"{head_offset} does not end the {len(view)}-byte table"
                )
            table = cls._from_head(view[: _HEADER_HEAD.size], view[head_offset:])
            for rec in table.records:
                if rec.section_ref is not None:
                    offset, length, crc = rec.section_ref
                    rec.section, rec.section_ref = view[offset : offset + length], None
                    _check_section(rec.section, crc, rec.file_path)
            return table
        if version >= 3:
            if len(view) < _HEADER.size + _META_FOOTER.size:
                raise MetadataError(f"metadata truncated: {len(view)} bytes")
            footer = view[-_META_FOOTER.size :]
            view = view[: -_META_FOOTER.size]
            crc = zlib.crc32(footer, _check_footer(footer, view, 0))
        else:
            crc = zlib.crc32(view)
        names, pos = unpack_names(view, _HEADER.size, num_attrs)
        records: list[MetadataRecord] = []
        for i in range(num_records):
            rec, pos = unpack_record(view, pos, names, version, i)
            records.append(rec)
        if pos != len(view):
            raise MetadataError(
                f"{len(view) - pos} trailing bytes after {num_records} records"
            )
        table = cls(records, tuple(names))
        table.crc32 = crc
        return table

    @classmethod
    def _from_head(cls, header, head) -> "SpatialMetadata":
        """Parse a version-6 head against its header: one CRC, one
        ``np.frombuffer`` over the rows, and one bounds check and one
        section-framing check for all of them.  The records point at their
        sections (``section_ref``)."""
        _, _, _, head_offset = _HEADER_HEAD.unpack_from(header)
        if len(head) < _HEAD_COUNTS.size + _META_FOOTER.size:
            raise MetadataError(f"metadata head truncated: {len(head)} bytes")
        body = head[: -_META_FOOTER.size]
        crc = _check_footer(head[-_META_FOOTER.size :], body, zlib.crc32(header))
        num_records, num_attrs = _HEAD_COUNTS.unpack_from(body)
        names, pos = unpack_names(body, _HEAD_COUNTS.size, num_attrs)
        dtype = _row_dtype(num_attrs)
        if len(body) - pos != num_records * dtype.itemsize:
            raise MetadataError(
                f"metadata head holds {len(body) - pos} bytes of rows, "
                f"{num_records} records need {num_records * dtype.itemsize}"
            )
        rows = np.frombuffer(body, dtype, count=num_records, offset=pos)
        bounds = rows["bounds"].copy()
        lo, hi = bounds[:, 0], bounds[:, 1]
        if not (np.isfinite(bounds).all() and (hi >= lo).all()):
            valid = np.isfinite(bounds).all(axis=(1, 2)) & (hi >= lo).all(axis=1)
            i = int(np.argmin(valid))
            raise MetadataError(
                f"record {i} has invalid bounds: lo={lo[i]}, hi={hi[i]}"
            )
        bounds.flags.writeable = False
        records = []
        end = _HEADER_HEAD.size
        for i, (box_id, agg_rank, gen, count, _, ranges, offset, length, section_crc, zero) in (
            enumerate(rows.tolist())
        ):
            if zero:
                raise MetadataError(f"metadata head row {i} has a non-zero reserved field")
            if offset != end or length > head_offset - end:
                raise MetadataError(
                    f"chunk section of record {i} ({length} bytes at {offset}) "
                    f"does not follow the one before it, at {end}, before the "
                    f"head at {head_offset}"
                )
            end += length
            records.append(
                MetadataRecord(
                    box_id, agg_rank, count, Box.trusted(lo[i], hi[i]),
                    dict(zip(names, map(tuple, ranges))),
                    gen=gen,
                    section_ref=(offset, length, section_crc) if length else None,
                )
            )
        if end != head_offset:
            raise MetadataError(
                f"chunk sections end at {end}, the head starts at {head_offset}"
            )
        table = cls.__new__(cls)
        table.records, table.attr_names = records, tuple(names)
        table._bounds_soa = (lo, hi)
        table.crc32 = crc
        table._validate()
        return table

    def write(self, backend: FileBackend, path: str = META_PATH, actor: int = -1) -> None:
        backend.write_file(path, self.to_bytes(), actor=actor)

    @classmethod
    def read(
        cls, backend: FileBackend, path: str = META_PATH, actor: int = -1
    ) -> "SpatialMetadata":
        """Open the table at ``path`` by its head: the header, then the head
        — two reads and O(files) bytes for a version-6 table, whose records
        then point at their sections (see :func:`read_section`).  The head
        ends the file, so a truncated table fails here.  Older versions are
        read whole."""
        header, head = bytearray(_HEADER.size), None
        try:
            backend.readv(path, ReadRequest.one(0, header), actor=actor)
            magic, version, head_len, head_offset = _HEADER_HEAD.unpack(header)
            if magic == META_MAGIC and version == META_VERSION_HEAD:
                # A head past 1 MiB (some ten thousand files) must end the
                # file before its buffer is allocated: a damaged header
                # never asks for gigabytes.
                if head_len > _LARGE_HEAD and backend.size(path) != head_offset + head_len:
                    raise MetadataError(
                        f"a {head_len}-byte head at {head_offset} does not end the table"
                    )
                head = bytearray(head_len)
                backend.readv(path, ReadRequest.one(head_offset, head), actor=actor)
            else:
                raw = backend.read_file(path, actor=actor)
        except Exception as exc:
            raise MetadataError(f"cannot read spatial metadata {path!r}: {exc}") from exc
        return cls.from_bytes(raw) if head is None else cls._from_head(header, head)

    @classmethod
    def read_whole(
        cls, backend: FileBackend, path: str = META_PATH, actor: int = -1
    ) -> "SpatialMetadata":
        """Read and check the whole table at ``path``, every chunk section
        included: the entry point of everything that rewrites a table."""
        try:
            raw = backend.read_file(path, actor=actor)
        except Exception as exc:
            raise MetadataError(f"cannot read spatial metadata {path!r}: {exc}") from exc
        return cls.from_bytes(raw)


def _first_overlap(lo, hi, gens) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, ``i < j`` in row-major order, of boxes of
    one generation that intersect (:meth:`Box.intersects`' open test).

    A sweep along x in plain Python: only boxes whose x-intervals overlap
    are compared, and on the cold cache of a fresh open it costs less than
    the dozen numpy broadcasts an all-pairs mask takes (~26 against ~75 µs
    for 8 files)."""
    found = None
    active: list[int] = []
    for i in sorted(range(len(lo)), key=lambda k: lo[k][0]):
        (x0, y0, z0), (x1, y1, z1), gen = lo[i], hi[i], gens[i]
        active = [j for j in active if hi[j][0] > x0]
        for j in active:
            (a0, b0, c0), (a1, b1, c1) = lo[j], hi[j]
            if gens[j] == gen and a0 < x1 and y0 < b1 and b0 < y1 and z0 < c1 and c0 < z1:
                pair = (j, i) if j < i else (i, j)
                found = pair if found is None else min(found, pair)
        active.append(i)
    return found


def _parse_header(raw) -> tuple[int, int, int]:
    """``(version, num_records, num_attrs)`` of a table's header; the two
    counts are meaningless for version 6, whose head holds them."""
    if len(raw) < _HEADER.size:
        raise MetadataError(f"metadata truncated: {len(raw)} bytes")
    magic, version, num_records, num_attrs, _ = _HEADER.unpack_from(raw)
    if magic != META_MAGIC:
        raise MetadataError(f"bad metadata magic {magic!r}")
    if version not in SUPPORTED_META_VERSIONS:
        raise MetadataError(f"unsupported metadata version {version}")
    return version, num_records, num_attrs


def _check_footer(footer, body, start: int) -> int:
    """Check an ``"MCRC" | u32 CRC32`` footer against ``body`` (the CRC
    continuing from ``start``); returns the CRC."""
    fmagic, stored = _META_FOOTER.unpack(footer)
    if fmagic != META_FOOTER_MAGIC:
        raise MetadataChecksumError(f"bad metadata footer magic {bytes(fmagic)!r}")
    actual = zlib.crc32(body, start)
    if actual != stored:
        raise MetadataChecksumError(
            f"metadata table CRC32 mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    return actual


def _check_section(section, stored: int, what: str) -> None:
    actual = zlib.crc32(section)
    if actual != stored:
        raise MetadataChecksumError(
            f"chunk section of {what} fails the CRC32 its table head records "
            f"— stored {stored:#010x}, computed {actual:#010x}"
        )


def read_section(backend: FileBackend, path: str, rec: MetadataRecord, actor: int) -> bytearray:
    """Fetch the chunk section a head-opened record points at from table
    ``path``: one ranged read, checked against the CRC32 the head recorded
    (so a table replaced since its head was read never lands an index)."""
    assert rec.section_ref is not None
    offset, length, crc = rec.section_ref
    section = bytearray(length)
    backend.readv(path, ReadRequest.one(offset, section), actor=actor)
    _check_section(section, crc, f"{rec.file_path} in {path!r}")
    return section


def table_crc32(raw) -> int:
    """What a manifest's ``spatial_meta_crc32`` commits for the table bytes
    ``raw``: the head's CRC32 for version 6 (the head commits every
    section's CRC32), the CRC32 of the whole file before.  Parsing a table
    yields the same value as :attr:`SpatialMetadata.crc32`."""
    if len(raw) >= _HEADER_HEAD.size:
        magic, version, _, _ = _HEADER_HEAD.unpack_from(raw)
        if magic == META_MAGIC and version == META_VERSION_HEAD:
            return _META_FOOTER.unpack_from(raw, len(raw) - _META_FOOTER.size)[1]
    return zlib.crc32(raw)


def check_table_crc(committed: int | None, table: SpatialMetadata, path: str) -> None:
    """Raise :class:`~repro.errors.MetadataChecksumError` unless the
    manifest's ``committed`` ``spatial_meta_crc32`` matches ``table`` as
    parsed from ``path`` (a manifest without the field commits nothing):
    a table swapped in from another dataset is refused."""
    if committed is not None and committed != table.crc32:
        raise MetadataChecksumError(
            f"{path}: the manifest commits spatial_meta_crc32 {committed:#010x}, "
            f"the table on disk has {table.crc32:#010x}"
        )
