"""Particle data files.

Each aggregator writes one data file holding its LOD-ordered particles.  The
layout (format versions 2 and 3) is a small fixed header, the raw
little-endian structured records, and a CRC32 footer::

    offset  size  field
    0       8     magic  b"SPIODATA"
    8       4     format version (u32, currently 3)
    12      4     record size in bytes (u32)  — guards dtype mismatches
    16      8     particle count (u64)
    24      ...   particle records
            4     footer magic b"FCRC"
            4     CRC32 of header + records (u32)

Version-1 files (no footer) remain fully readable; they simply carry no
whole-file checksum, so corruption in them is only caught by the structural
checks (magic, version, record size, byte length).

**Version 3** appends a self-describing *recovery trailer* after the CRC
footer (see :class:`RecoveryTrailer`)::

    ...     ...   JSON trailer body (utf-8)
    -12     4     trailer magic b"RCVT"
    -8      4     trailer body length (u32)
    -4      4     CRC32 of the trailer body (u32)

The trailer redundantly carries everything the dataset-level metadata knows
about this one file — box id, aggregator rank, bounding box, per-attribute
ranges, dtype descr, LOD parameters, and the file's payload/prefix
checksums — so a dataset whose ``spatial.meta``/``manifest.json`` are lost
can be rebuilt purely from surviving data files (:mod:`repro.core.repair`).
It sits entirely past the footer: the version gate lets v3 length checks
tolerate the extra tail, and v1/v2 files simply have none.

**Version 4** keeps the same header/footer/trailer framing but stores the
payload *column-oriented*: for each spatial chunk (the sub-file chunk index
of :mod:`repro.format.chunks`), one contiguous *segment* per attribute
column — ``x``, ``y``, ``z``, then every other dtype field — each passed
through a named codec (:mod:`repro.format.codecs`) before storage.  The
header's record size still records the *logical* row itemsize (the dtype
guard), while the chunk entries grow a sixth element holding per-segment
``[offset, encoded_length, crc32]`` descriptors (offsets relative to the
payload start).  The footer CRC and ``payload_crc32`` cover the *stored*
(encoded) payload; the per-LOD prefix checksums keep covering the *logical*
row payload, so LOD salvage semantics carry over unchanged.  A v4 file is
self-describing through its trailer (chunk geometry + segment table +
codec name), honouring the same recovery contract as v3.

The header stores only the record *size*; the full dtype lives in the
dataset manifest.  Keeping it in both places lets a reader detect a manifest
/ data-file mismatch without decoding garbage.

Besides the footer, the writer records **per-LOD-level prefix checksums** in
the manifest (see :func:`compute_file_checksums`): CRC32s of the payload up
to each per-file level boundary.  Prefix reads — which never see the footer
— verify against these when the requested count lands on a boundary, and the
scrubber verifies all of them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.domain.box import Box
from repro.errors import DataChecksumError, DataFileError
from repro.format.chunks import (
    Runs,
    chunks_from_entry,
    concat_ranges,
    pack_chunks,
)
from repro.format.codecs import get_codec
from repro.io.backend import FileBackend
from repro.particles.batch import ParticleBatch

DATA_MAGIC = b"SPIODATA"
#: Version written when a recovery trailer is supplied (the spatial writer).
DATA_VERSION = 3
#: Version written for bare files with no trailer (baseline formats).
DATA_VERSION_PLAIN = 2
#: Version written for columnar (per-chunk column segment) payloads.
DATA_VERSION_COLUMNAR = 4
_HEADER = struct.Struct("<8sIIQ")
HEADER_BYTES = _HEADER.size

FOOTER_MAGIC = b"FCRC"
_FOOTER = struct.Struct("<4sI")
FOOTER_BYTES = _FOOTER.size

TRAILER_MAGIC = b"RCVT"
_TRAILER_FOOTER = struct.Struct("<4sII")
TRAILER_FOOTER_BYTES = _TRAILER_FOOTER.size

#: Versions this reader understands.
SUPPORTED_DATA_VERSIONS = (1, 2, 3, 4)


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


# -- the recovery trailer (format v3) ------------------------------------------


@dataclass(frozen=True)
class RecoveryTrailer:
    """The self-describing tail of a v3 data file.

    One trailer carries every fact about its file that otherwise lives only
    in the dataset-level ``spatial.meta`` record and ``manifest.json``
    checksum entry, making the file recoverable without either:

    * spatial facts — ``box_id``, ``agg_rank``, ``particle_count``, the
      partition bounding box, and the indexed per-attribute ranges (an
      *ordered* list, so the metadata table's attribute order survives);
    * dataset facts — the particle ``dtype_descr`` and the LOD parameters,
      identical across all files of one dataset;
    * integrity facts — the payload CRC32 and the per-LOD prefix checksums
      (the manifest's per-file entry, verbatim).

    Serialised as a compact JSON body followed by a 12-byte checksummed
    tail (``RCVT`` magic | body length | body CRC32), appended *after* the
    data footer so it is invisible to plain payload reads.
    """

    box_id: int
    agg_rank: int
    particle_count: int
    bounds_lo: tuple[float, float, float]
    bounds_hi: tuple[float, float, float]
    #: ``(name, min, max)`` per indexed attribute, in metadata-table order.
    attr_ranges: tuple[tuple[str, float, float], ...]
    dtype_descr: list
    lod_base: int
    lod_scale: int
    lod_heuristic: str
    lod_seed: int | None
    payload_crc32: int
    #: ``(count, crc32)`` at each per-file LOD boundary.
    prefixes: tuple[tuple[int, int], ...]
    #: Sub-file spatial chunk index in canonical tuple form
    #: (see :func:`repro.format.chunks.chunks_from_entry`); empty for
    #: datasets written with chunking disabled, keeping their trailers
    #: byte-identical to pre-chunk-index files.
    chunks: tuple = ()
    #: Generation that wrote this file (0 = classic layout).  Serialised
    #: only when nonzero so generation-0 trailers stay byte-identical.
    gen: int = 0
    #: Codec every column segment of a columnar (v4) file was encoded
    #: with (see :mod:`repro.format.codecs`); ``None`` for row-oriented
    #: files, and serialised only when set so v1–v3 trailers stay
    #: byte-identical.
    codec: str | None = None

    @property
    def bounds(self) -> Box:
        return Box(self.bounds_lo, self.bounds_hi)

    @property
    def attr_ranges_dict(self) -> dict[str, tuple[float, float]]:
        return {name: (lo, hi) for name, lo, hi in self.attr_ranges}

    @cached_property
    def section(self) -> bytes:
        """The chunk index as the packed table section it must equal."""
        return pack_chunks(self.chunks)

    @property
    def checksum_entry(self) -> dict:
        """The manifest ``checksums`` entry this trailer reconstructs, plus
        its table record's chunk ``section`` — what repair compares."""
        entry = {
            "payload_crc32": int(self.payload_crc32),
            "prefixes": [[int(c), int(crc)] for c, crc in self.prefixes],
        }
        if self.chunks:
            entry["section"] = self.section
        if self.codec is not None:
            entry["codec"] = str(self.codec)
        return entry

    def to_bytes(self) -> bytes:
        doc = {
            "box_id": self.box_id,
            "agg_rank": self.agg_rank,
            "particle_count": self.particle_count,
            "bounds": {"lo": list(self.bounds_lo), "hi": list(self.bounds_hi)},
            "attr_ranges": [[n, lo, hi] for n, lo, hi in self.attr_ranges],
            "dtype_descr": self.dtype_descr,
            "lod": {
                "base": self.lod_base,
                "scale": self.lod_scale,
                "heuristic": self.lod_heuristic,
                "seed": self.lod_seed,
            },
            "payload_crc32": self.payload_crc32,
            "prefixes": [[c, crc] for c, crc in self.prefixes],
        }
        if self.chunks:
            # Canonical int/float tuples encode as the JSON lists they came from.
            doc["chunks"] = self.chunks
        if self.gen:
            doc["gen"] = self.gen
        if self.codec is not None:
            doc["codec"] = str(self.codec)
        body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return body + _TRAILER_FOOTER.pack(TRAILER_MAGIC, len(body), zlib.crc32(body))

    @classmethod
    def from_json_bytes(cls, body: bytes, path: str) -> "RecoveryTrailer":
        try:
            doc = json.loads(body.decode("utf-8"))
            lod = doc["lod"]
            seed = lod["seed"]
            trailer = cls(
                box_id=int(doc["box_id"]),
                agg_rank=int(doc["agg_rank"]),
                particle_count=int(doc["particle_count"]),
                bounds_lo=tuple(float(v) for v in doc["bounds"]["lo"]),
                bounds_hi=tuple(float(v) for v in doc["bounds"]["hi"]),
                attr_ranges=tuple(
                    (str(n), float(lo), float(hi))
                    for n, lo, hi in doc["attr_ranges"]
                ),
                dtype_descr=doc["dtype_descr"],
                lod_base=int(lod["base"]),
                lod_scale=int(lod["scale"]),
                lod_heuristic=str(lod["heuristic"]),
                lod_seed=None if seed is None else int(seed),
                payload_crc32=int(doc["payload_crc32"]),
                prefixes=tuple((int(c), int(crc)) for c, crc in doc["prefixes"]),
                chunks=chunks_from_entry(doc.get("chunks", [])),
                gen=int(doc.get("gen", 0)),
                codec=(None if doc.get("codec") is None else str(doc["codec"])),
            )
            # An index that does not pack into a table section is malformed.
            trailer.section  # noqa: B018
            return trailer
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFileError(
                f"{path}: malformed recovery trailer body: {exc}"
            ) from exc


def extract_recovery_trailer(raw: bytes, path: str) -> RecoveryTrailer:
    """Parse the recovery trailer from a complete v3 file image."""
    if len(raw) < TRAILER_FOOTER_BYTES:
        raise DataFileError(f"{path}: no recovery trailer ({len(raw)} bytes)")
    magic, body_len, stored = _TRAILER_FOOTER.unpack(raw[-TRAILER_FOOTER_BYTES:])
    if magic != TRAILER_MAGIC:
        raise DataFileError(f"{path}: bad recovery-trailer magic {magic!r}")
    if body_len > len(raw) - TRAILER_FOOTER_BYTES:
        raise DataFileError(
            f"{path}: recovery-trailer body length {body_len} exceeds file"
        )
    body = raw[len(raw) - TRAILER_FOOTER_BYTES - body_len : -TRAILER_FOOTER_BYTES]
    actual = zlib.crc32(body)
    if actual != stored:
        raise DataChecksumError(
            f"{path}: recovery-trailer CRC32 mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    return RecoveryTrailer.from_json_bytes(body, path)


def read_recovery_trailer(
    backend: FileBackend, path: str, actor: int = -1
) -> RecoveryTrailer:
    """Read just the recovery trailer of ``path`` via ranged reads."""
    size = backend.size(path)
    if size < HEADER_BYTES + FOOTER_BYTES + TRAILER_FOOTER_BYTES:
        raise DataFileError(f"{path}: no recovery trailer ({size} bytes)")
    tail = backend.read_range(path, size - TRAILER_FOOTER_BYTES,
                              TRAILER_FOOTER_BYTES, actor=actor)
    magic, body_len, _stored = _TRAILER_FOOTER.unpack(tail)
    if magic != TRAILER_MAGIC:
        raise DataFileError(f"{path}: bad recovery-trailer magic {magic!r}")
    if body_len > size - TRAILER_FOOTER_BYTES:
        raise DataFileError(
            f"{path}: recovery-trailer body length {body_len} exceeds file"
        )
    body = backend.read_range(
        path, size - TRAILER_FOOTER_BYTES - body_len, body_len, actor=actor
    )
    return extract_recovery_trailer(bytes(body) + bytes(tail), path)


# -- writing -------------------------------------------------------------------


def _payload_view(batch: ParticleBatch) -> memoryview:
    """``batch``'s records as flat bytes over the array's own buffer (no
    copy when contiguous, as the writer's LOD-permuted batches are)."""
    return memoryview(np.ascontiguousarray(batch.data).view(np.uint8))


def build_data_blob(
    payload: bytes | memoryview,
    itemsize: int,
    count: int,
    trailer: RecoveryTrailer | None = None,
    version: int | None = None,
) -> bytes:
    """Assemble a complete data-file image from a raw payload.

    Shared by :func:`write_data_file` and the repair subsystem's torn-file
    truncation, which rebuilds a shorter file from salvaged payload bytes.
    Without an explicit ``version`` the presence of a trailer selects v3
    over v2; columnar writers pass ``version=DATA_VERSION_COLUMNAR`` with
    an already-encoded ``payload`` (``itemsize`` stays the logical row
    itemsize — the dtype guard).
    """
    if version is None:
        version = DATA_VERSION if trailer is not None else DATA_VERSION_PLAIN
    if version >= DATA_VERSION_COLUMNAR and trailer is None:
        raise DataFileError("columnar (v4) files require a recovery trailer")
    header = _HEADER.pack(DATA_MAGIC, version, itemsize, count)
    footer = _FOOTER.pack(FOOTER_MAGIC, zlib.crc32(payload, zlib.crc32(header)))
    tail = trailer.to_bytes() if trailer is not None else b""
    return b"".join((header, payload, footer, tail))  # the payload's one copy


def write_data_file(
    backend: FileBackend,
    path: str,
    batch: ParticleBatch,
    actor: int = -1,
    trailer: RecoveryTrailer | None = None,
) -> int:
    """Write ``batch`` (already LOD-ordered) to ``path``; returns bytes written.

    With a :class:`RecoveryTrailer` the file is written as format v3
    (self-describing); without one it stays a plain v2 file, byte-identical
    to what earlier writers produced.
    """
    blob = build_data_blob(
        _payload_view(batch), batch.dtype.itemsize, len(batch), trailer
    )
    backend.write_file(path, blob, actor=actor)
    return len(blob)


def write_columnar_data_file(
    backend: FileBackend,
    path: str,
    payload: bytes,
    itemsize: int,
    count: int,
    trailer: RecoveryTrailer,
    actor: int = -1,
) -> int:
    """Write an already-encoded columnar payload as a v4 file.

    ``payload`` comes from :func:`encode_columnar_payload`; ``itemsize`` is
    the *logical* row itemsize (the header's dtype guard) and ``trailer``
    must carry the segment-bearing chunk list plus the codec name — a v4
    file without them is unreadable.  Returns bytes written.
    """
    blob = build_data_blob(
        payload, itemsize, count, trailer, version=DATA_VERSION_COLUMNAR
    )
    backend.write_file(path, blob, actor=actor)
    return len(blob)


def parse_data_header(raw: bytes, path: str) -> tuple[int, int, int]:
    """Validate the fixed header without a dtype in hand.

    Returns ``(version, record_size, particle_count)`` — the lenient parse
    the repair subsystem uses on files whose manifest (and therefore dtype)
    may be lost.
    """
    if len(raw) < HEADER_BYTES:
        raise DataFileError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, rec_size, count = _HEADER.unpack_from(raw)
    if magic != DATA_MAGIC:
        raise DataFileError(f"{path}: bad magic {magic!r}")
    if version not in SUPPORTED_DATA_VERSIONS:
        raise DataFileError(f"{path}: unsupported version {version}")
    return int(version), int(rec_size), int(count)


def _parse_header(raw: bytes, path: str, dtype: np.dtype) -> tuple[int, int]:
    """Validate the fixed header; returns ``(version, particle_count)``."""
    version, rec_size, count = parse_data_header(raw, path)
    if rec_size != dtype.itemsize:
        raise DataFileError(
            f"{path}: record size {rec_size} does not match dtype itemsize "
            f"{dtype.itemsize} — manifest and data file disagree"
        )
    return version, count


def _reject_columnar(version: int, path: str) -> None:
    """Row-oriented ranged primitives cannot interpret encoded segments."""
    if version >= DATA_VERSION_COLUMNAR:
        raise DataFileError(
            f"{path}: columnar (v4) file requires a segment-aware read "
            "(see read_columnar_runs_into)"
        )


def verify_data_footer(raw: bytes, path: str) -> None:
    """Check the v2+ CRC footer of a complete file image (header + records +
    footer, no trailer).  Shared with the repair subsystem's inspection."""
    body, footer = raw[:-FOOTER_BYTES], raw[-FOOTER_BYTES:]
    magic, stored = _FOOTER.unpack(footer)
    if magic != FOOTER_MAGIC:
        raise DataChecksumError(f"{path}: bad footer magic {magic!r}")
    actual = zlib.crc32(body)
    if actual != stored:
        raise DataChecksumError(
            f"{path}: CRC32 mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )


def read_data_file(
    backend: FileBackend, path: str, dtype: np.dtype, actor: int = -1
) -> ParticleBatch:
    """Read every particle in ``path``, verifying the checksum footer (v2+).

    Version gating of the length check: v1/v2 files must match the expected
    byte count exactly, while v3 files may carry extra bytes past the footer
    (the recovery trailer), which a plain read ignores.  Columnar (v4) files
    are decoded through their trailer's segment table — every segment CRC is
    verified — and return the same logical row batch a v3 file would.
    """
    raw = backend.read_file(path, actor=actor)
    version, count = _parse_header(raw, path, dtype)
    if version >= DATA_VERSION_COLUMNAR:
        return _read_columnar_image(raw, path, dtype, count)
    footer = FOOTER_BYTES if version >= 2 else 0
    expected = HEADER_BYTES + count * dtype.itemsize + footer
    if (len(raw) < expected) if version >= 3 else (len(raw) != expected):
        raise DataFileError(
            f"{path}: expected {expected} bytes for {count} particles, "
            f"found {len(raw)}"
        )
    if version >= 2:
        verify_data_footer(raw[:expected], path)
    return ParticleBatch.frombuffer(raw[HEADER_BYTES : expected - footer], dtype)


def read_data_prefix(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    count: int,
    offset_particles: int = 0,
    actor: int = -1,
) -> ParticleBatch:
    """Read ``count`` particles starting at ``offset_particles``.

    This is the LOD read primitive: because files are written in level-of-
    detail order, a prefix *is* a coarse representation, and progressive
    refinement reads the next slice without re-reading the previous one.

    Ranged reads never touch the file footer, so they carry no whole-file
    verification; callers holding the manifest's prefix checksums can verify
    boundary-aligned prefixes (see :meth:`SpatialReader.execute`).
    """
    if count < 0 or offset_particles < 0:
        raise DataFileError(
            f"negative count/offset ({count}, {offset_particles}) for {path}"
        )
    header = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    _version, total = _parse_header(header, path, dtype)
    _reject_columnar(_version, path)
    if offset_particles + count > total:
        raise DataFileError(
            f"{path}: slice [{offset_particles}, {offset_particles + count}) "
            f"exceeds particle count {total}"
        )
    if count == 0:
        return ParticleBatch(np.empty(0, dtype=dtype))
    start = HEADER_BYTES + offset_particles * dtype.itemsize
    raw = backend.read_range(path, start, count * dtype.itemsize, actor=actor)
    return ParticleBatch.frombuffer(raw, dtype)


def read_data_file_into(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    out: np.ndarray,
    actor: int = -1,
) -> int:
    """Zero-copy :func:`read_data_file`: land the payload in ``out``.

    ``out`` must be a contiguous structured array of exactly the file's
    particle count; the payload is read straight into its buffer via
    :meth:`FileBackend.readinto` — no whole-file bytes object is ever
    materialised.  Verification is identical to :func:`read_data_file`
    (header structure, byte length vs. the on-disk size, v2+ CRC footer),
    with matching error messages, so the two paths are interchangeable to
    every caller that inspects failures.  Returns the particle count.
    """
    size = backend.size(path)
    if size < HEADER_BYTES:
        raise DataFileError(f"{path}: truncated header ({size} bytes)")
    # Speculative scatter-gather: the caller's ``out`` predicts the payload
    # extent, so header, payload, and footer land in ONE readv (one open).
    # When the on-disk size contradicts the prediction, fall back to a
    # header-only read — the validation below then raises exactly the error
    # the sized-read path would have.
    buf = out.view(np.uint8)
    header = bytearray(HEADER_BYTES)
    payload = len(out) * dtype.itemsize
    rem = size - HEADER_BYTES - payload
    footer_buf = bytearray(FOOTER_BYTES) if rem >= FOOTER_BYTES else None
    if rem == 0 or footer_buf is not None:
        segments: list = [(0, header)]
        if payload:
            segments.append((HEADER_BYTES, buf))
        if footer_buf is not None:
            segments.append((HEADER_BYTES + payload, footer_buf))
        backend.readv(path, segments, actor=actor)
    else:
        header[:] = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    version, count = _parse_header(bytes(header), path, dtype)
    _reject_columnar(version, path)
    footer = FOOTER_BYTES if version >= 2 else 0
    expected = HEADER_BYTES + count * dtype.itemsize + footer
    if (size < expected) if version >= 3 else (size != expected):
        raise DataFileError(
            f"{path}: expected {expected} bytes for {count} particles, "
            f"found {size}"
        )
    if count != len(out):
        raise DataFileError(
            f"{path}: holds {count} particles, caller expected {len(out)}"
        )
    if version >= 2:
        # The checks above passing guarantees the speculative layout was
        # right, so the footer segment holds the real footer bytes.
        magic, stored = _FOOTER.unpack(bytes(footer_buf))
        if magic != FOOTER_MAGIC:
            raise DataChecksumError(f"{path}: bad footer magic {magic!r}")
        actual = zlib.crc32(buf, zlib.crc32(header))
        if actual != stored:
            raise DataChecksumError(
                f"{path}: CRC32 mismatch — stored {stored:#010x}, "
                f"computed {actual:#010x}"
            )
    return count


def read_data_prefix_into(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    out: np.ndarray,
    offset_particles: int = 0,
    actor: int = -1,
) -> int:
    """Zero-copy :func:`read_data_prefix`: land ``len(out)`` particles
    starting at ``offset_particles`` directly in ``out``'s buffer.

    Same validation and error messages as :func:`read_data_prefix`, but
    header and payload arrive via one :meth:`FileBackend.readv` (a single
    open); like it, carries no whole-file verification.  Returns the
    particle count read.
    """
    count = len(out)
    if offset_particles < 0:
        raise DataFileError(
            f"negative count/offset ({count}, {offset_particles}) for {path}"
        )
    header = bytearray(HEADER_BYTES)
    start = HEADER_BYTES + offset_particles * dtype.itemsize
    nbytes = count * dtype.itemsize
    # Header and payload in one readv when the slice fits the on-disk size;
    # a slice past EOF implies it exceeds the particle count, so the
    # header-only fallback always ends in the legacy slice error below.
    if nbytes and start + nbytes <= backend.size(path):
        backend.readv(
            path, [(0, header), (start, out.view(np.uint8))], actor=actor
        )
    else:
        header[:] = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    _version, total = _parse_header(bytes(header), path, dtype)
    _reject_columnar(_version, path)
    if offset_particles + count > total:
        raise DataFileError(
            f"{path}: slice [{offset_particles}, {offset_particles + count}) "
            f"exceeds particle count {total}"
        )
    return count


def read_particle_runs_into(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    runs,
    out: np.ndarray,
    actor: int = -1,
) -> int:
    """Scatter-gather read of coalesced ``(start, count)`` particle runs.

    The chunked read primitive: each run lands in the next ``count``
    particles of ``out``, all runs gathered in one
    :meth:`FileBackend.readv` (a single open serves the whole file).
    Runs must be in ascending order and sum to ``len(out)``.  Like prefix
    reads, run reads never see the file footer, so they carry no whole-file
    verification — the chunk index they were planned from is validated
    against the manifest instead.  Returns the particle count read.
    """
    runs = Runs.of(runs)
    starts, counts = runs.starts, runs.counts
    ends = starts + counts
    negative = (starts < 0) | (counts < 0)
    itemsize = dtype.itemsize
    header = bytearray(HEADER_BYTES)
    # Header plus every run in one readv (one open), issued speculatively:
    # the header it fetches is what the plan is validated against below.  A
    # plan that cannot assemble valid segments (negative run, destination
    # mismatch, past EOF) takes the header-only read and raises from the
    # same checks.
    if (
        not negative.any()
        and runs.total == len(out)
        and HEADER_BYTES + int(ends.max(initial=0)) * itemsize
        <= backend.size(path)
    ):
        dest = memoryview(out.view(np.uint8))
        begins = runs.offsets * itemsize
        segments: list = [(0, header)]
        segments += [
            (offset, dest[lo:hi])
            for offset, lo, hi in zip(
                (HEADER_BYTES + starts * itemsize).tolist(),
                begins.tolist(),
                (begins + counts * itemsize).tolist(),
            )
        ]
        backend.readv(path, segments, actor=actor)
    else:
        header[:] = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    _version, total = _parse_header(bytes(header), path, dtype)
    _reject_columnar(_version, path)
    outside = np.flatnonzero(negative | (ends > total))
    if len(outside):
        bad = outside[0]
        raise DataFileError(
            f"{path}: run [{int(starts[bad])}, {int(ends[bad])}) exceeds "
            f"particle count {total}"
        )
    if runs.total > len(out):
        raise DataFileError(
            f"{path}: runs overflow destination of {len(out)} particles"
        )
    if runs.total != len(out):
        raise DataFileError(
            f"{path}: runs cover {runs.total} particles, destination holds "
            f"{len(out)}"
        )
    return runs.total


def peek_data_header(
    backend: FileBackend, path: str, actor: int = -1
) -> tuple[int, int]:
    """``(version, particle_count)`` from the header alone (no payload read)."""
    header = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    if len(header) < HEADER_BYTES or header[:8] != DATA_MAGIC:
        raise DataFileError(f"{path}: not a particle data file")
    _, version, _, count = _HEADER.unpack_from(header)
    return int(version), int(count)


def peek_particle_count(backend: FileBackend, path: str, actor: int = -1) -> int:
    """Particle count from the header alone (no payload read)."""
    return peek_data_header(backend, path, actor=actor)[1]


# -- columnar payloads (format v4) ---------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute column of a columnar payload.

    The canonical column order of a dtype is ``x``, ``y``, ``z`` (the three
    position components, each its own column) followed by every other field
    in dtype order, one column per field (subarray fields like a stress
    tensor stay one contiguous column).  ``itemsize`` is the scalar width —
    the codec shuffle stride — and ``nbytes`` the raw bytes one particle
    contributes to this column.
    """

    name: str
    field: str
    comp: int | None
    base: np.dtype
    shape: tuple
    itemsize: int
    nbytes: int


def columnar_columns(dtype: np.dtype) -> tuple[ColumnSpec, ...]:
    """The canonical column list for a particle ``dtype``."""
    dtype = np.dtype(dtype)
    if dtype.names is None or "position" not in dtype.names:
        raise DataFileError(f"not a particle dtype: {dtype}")
    cols: list[ColumnSpec] = []
    for field in dtype.names:
        sub = dtype.fields[field][0]  # type: ignore[index]
        base = sub.base
        if field == "position":
            for comp, axis in enumerate("xyz"):
                cols.append(
                    ColumnSpec(
                        axis, field, comp, base, (), base.itemsize, base.itemsize
                    )
                )
        else:
            cols.append(
                ColumnSpec(
                    field, field, None, base, sub.shape,
                    base.itemsize, sub.itemsize,
                )
            )
    return tuple(cols)


def _column_bytes(rows: np.ndarray, col: ColumnSpec) -> bytes:
    """Raw little-endian bytes of one column over ``rows``."""
    if col.comp is not None:
        return np.ascontiguousarray(rows[col.field][:, col.comp]).tobytes()
    return np.ascontiguousarray(rows[col.field]).tobytes()


def _column_scatter(
    out: np.ndarray, pos: int, count: int, col: ColumnSpec, raw: bytes
) -> None:
    """Land one decoded column segment into rows ``[pos, pos+count)``."""
    vals = np.frombuffer(raw, dtype=col.base)
    if col.comp is not None:
        out[col.field][pos : pos + count, col.comp] = vals
    elif col.shape:
        out[col.field][pos : pos + count] = vals.reshape((count,) + col.shape)
    else:
        out[col.field][pos : pos + count] = vals


def encode_columnar_payload(
    batch: ParticleBatch, index, codec_name: str
) -> tuple[bytes, list]:
    """Transpose ``batch`` into the v4 encoded payload.

    ``index`` is the file's chunk index from
    :func:`repro.format.chunks.build_chunk_entry`.  Returns the stored
    payload bytes and, per chunk, the segment descriptor list
    ``[[offset, encoded_length, crc32], ...]`` in canonical column order
    (offsets relative to the payload start).
    """
    codec = get_codec(codec_name)
    cols = columnar_columns(batch.dtype)
    rowsv = batch.data
    parts: list[bytes] = []
    seg_lists: list[list] = []
    off = 0
    for start, count in zip(index.starts.tolist(), index.counts.tolist()):
        rows = rowsv[start : start + count]
        segs: list = []
        for col in cols:
            enc = codec.encode(_column_bytes(rows, col), col.itemsize)
            segs.append([off, len(enc), zlib.crc32(enc)])
            parts.append(enc)
            off += len(enc)
        seg_lists.append(segs)
    return b"".join(parts), seg_lists


def columnar_payload_length(chunks: tuple) -> int:
    """Stored payload byte length implied by a segment-bearing chunk list."""
    end = 0
    for chunk in chunks:
        if len(chunk) < 6:
            raise DataFileError("chunk entry carries no column segments")
        for off, ln, _crc in chunk[5]:
            end = max(end, int(off) + int(ln))
    return end


def decode_columnar_payload(
    payload: bytes,
    chunks: tuple,
    codec_name: str,
    dtype: np.dtype,
    path: str,
) -> np.ndarray:
    """Decode a full v4 payload back into logical row records.

    ``chunks`` is the canonical segment-bearing chunk tuple (from a trailer
    or manifest entry).  Every segment's CRC32 is verified before decode;
    a mismatch raises :class:`~repro.errors.DataChecksumError` naming the
    chunk and column.
    """
    cols = columnar_columns(dtype)
    total = sum(int(c[1]) for c in chunks)
    out = np.empty(total, dtype=dtype)
    for ci, chunk in enumerate(chunks):
        start, count = int(chunk[0]), int(chunk[1])
        if len(chunk) < 6 or len(chunk[5]) != len(cols):
            raise DataFileError(
                f"{path}: chunk {ci} lacks segment descriptors for "
                f"{len(cols)} columns"
            )
        for col, (off, ln, crc) in zip(cols, chunk[5]):
            off, ln = int(off), int(ln)
            enc = payload[off : off + ln]
            if len(enc) != ln:
                raise DataFileError(
                    f"{path}: chunk {ci} column {col.name!r} segment "
                    f"[{off}, {off + ln}) exceeds payload ({len(payload)} bytes)"
                )
            actual = zlib.crc32(enc)
            if actual != int(crc):
                raise DataChecksumError(
                    f"{path}: chunk {ci} column {col.name!r} segment CRC32 "
                    f"mismatch — stored {int(crc):#010x}, computed {actual:#010x}"
                )
            raw = get_codec(codec_name).decode(
                enc, col.itemsize, count * col.nbytes
            )
            _column_scatter(out, start, count, col, raw)
    return out


def scan_columnar_segments(
    raw: bytes, chunks: tuple, dtype: np.dtype
) -> list[tuple[int, str, str]]:
    """CRC-verify every column segment of a v4 file image.

    Returns one ``(chunk, column-name, detail)`` triple per failing segment
    (bad extent or CRC32 mismatch) — empty when the stored payload is
    intact.  Unlike :func:`decode_columnar_payload` this keeps going after
    a failure, so a scrub can pinpoint *all* damaged segments in one pass.
    """
    cols = columnar_columns(dtype)
    bad: list[tuple[int, str, str]] = []
    for ci, chunk in enumerate(chunks):
        if len(chunk) < 6 or len(chunk[5]) != len(cols):
            bad.append(
                (
                    ci,
                    "*",
                    f"chunk {ci} lacks segment descriptors for "
                    f"{len(cols)} columns",
                )
            )
            continue
        for col, (off, ln, crc) in zip(cols, chunk[5]):
            off, ln = int(off), int(ln)
            seg = raw[HEADER_BYTES + off : HEADER_BYTES + off + ln]
            if len(seg) != ln:
                bad.append(
                    (
                        ci,
                        col.name,
                        f"chunk {ci} column {col.name!r} segment "
                        f"[{off}, {off + ln}) exceeds the file",
                    )
                )
                continue
            actual = zlib.crc32(seg)
            if actual != int(crc):
                bad.append(
                    (
                        ci,
                        col.name,
                        f"chunk {ci} column {col.name!r} segment CRC32 "
                        f"mismatch — stored {int(crc):#010x}, "
                        f"computed {actual:#010x}",
                    )
                )
    return bad


def _read_columnar_image(
    raw: bytes, path: str, dtype: np.dtype, count: int
) -> ParticleBatch:
    """Decode a complete v4 file image (the read_data_file slow path)."""
    trailer = extract_recovery_trailer(raw, path)
    if count and not trailer.chunks:
        raise DataFileError(
            f"{path}: columnar file trailer carries no chunk index"
        )
    enc_len = columnar_payload_length(trailer.chunks) if trailer.chunks else 0
    expected = HEADER_BYTES + enc_len + FOOTER_BYTES
    if len(raw) < expected:
        raise DataFileError(
            f"{path}: expected {expected} bytes for {count} particles, "
            f"found {len(raw)}"
        )
    verify_data_footer(raw[:expected], path)
    arr = decode_columnar_payload(
        raw[HEADER_BYTES : HEADER_BYTES + enc_len],
        trailer.chunks,
        trailer.codec or "none",
        dtype,
        path,
    )
    if len(arr) != count:
        raise DataFileError(
            f"{path}: chunk index covers {len(arr)} particles, "
            f"header says {count}"
        )
    return ParticleBatch(arr)


def _chunks_of_runs(index, runs: Runs, path: str) -> np.ndarray:
    """Ids of the chunks that tile ``runs``, in run order.

    The index tiles the payload, so a run is chunk-aligned iff both its
    ends are chunk boundaries — two ``searchsorted`` calls for all runs.
    """
    edges = np.append(index.starts, index.total_particles)
    ends = runs.starts + runs.counts
    first = np.searchsorted(edges, runs.starts)
    last = np.searchsorted(edges, ends)
    aligned = (
        (edges.take(first, mode="clip") == runs.starts)
        & (edges.take(last, mode="clip") == ends)
        & (first < last)
    )
    if not aligned.all():
        bad = int(np.flatnonzero(~aligned)[0])
        raise DataFileError(
            f"{path}: run [{int(runs.starts[bad])}, {int(ends[bad])}) is not "
            "aligned to chunk boundaries"
        )
    return concat_ranges(first, last - first)


def read_columnar_runs_into(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    index,
    runs,
    out: np.ndarray,
    actor: int = -1,
    strict: bool = True,
    skipped: list | None = None,
    decode_stats: dict | None = None,
) -> int:
    """Projected scatter-gather read of a columnar (v4) file.

    The v4 counterpart of :func:`read_particle_runs_into`: ``runs`` are
    chunk-aligned ``(start, count)`` particle runs, ``index`` the file's
    :class:`~repro.format.chunks.FileChunkIndex` carrying segment
    descriptors and the codec name, and ``out`` a structured destination
    whose fields select which columns are fetched (*attribute projection* —
    only the segments of fields present in ``out.dtype`` are read at all).
    ``dtype`` is the file's full logical dtype (the header guard).

    Header plus every needed segment arrive in one :meth:`FileBackend.readv`
    (a single open) into one landing buffer, and file-adjacent segments are
    **coalesced** first: the needed segments of a contiguous chunk run form
    one extent on disk (the writer lays a chunk's columns out back-to-back),
    so a whole run arrives as a single ``readv`` segment.  Every segment is
    then CRC32-verified and inflated on its own — the steps that can fail
    per segment — while the byte unshuffle and the scatter into ``out`` run
    once per column over each stretch of equal-sized chunks
    (:meth:`~repro.format.codecs.Codec.decode_run`).  All of it happens
    here, in the caller's thread — the reader submits this function as an
    executor task, which is what moves decode work off the submitting
    thread.  ``decode_stats`` (if given) receives ``vectorized_runs``
    (coalesced extents read) and ``bytes`` (encoded bytes fetched) — the
    ``decode.*`` obs counters.  (Named to avoid the ``stats`` kwarg
    :meth:`~repro.io.retry.RetryPolicy.call` consumes when this function
    runs under a retry policy.)

    With ``strict=False`` a segment that fails its CRC (or decode) drops
    only its *chunk*: surviving chunks pack to the front of ``out`` and the
    damaged ones are appended to ``skipped`` as ``(chunk, column, detail)``.
    Returns the number of particles delivered.
    """
    if skipped is not None:
        skipped.clear()
    if index.segments is None or index.codec is None:
        raise DataFileError(f"{path}: chunk index carries no column segments")
    codec = get_codec(index.codec)
    cols = columnar_columns(dtype)
    fields = {col.field for col in cols}
    names = out.dtype.names or ()
    for name in names:
        if name not in fields:
            raise DataFileError(
                f"{path}: projected field {name!r} is not in the file dtype"
            )
    need_ids = [j for j, col in enumerate(cols) if col.field in names]
    need = [cols[j] for j in need_ids]
    sel = _chunks_of_runs(index, Runs.of(runs), path)
    counts = index.counts[sel]
    expected = int(counts.sum())
    if expected != len(out):
        raise DataFileError(
            f"{path}: runs cover {expected} particles, destination holds "
            f"{len(out)}"
        )
    table = index.segment_table
    if len(sel) and table.shape[1] != len(cols):
        raise DataFileError(
            f"{path}: chunk {int(sel[0])} has {table.shape[1]} segments for "
            f"{len(cols)} columns"
        )
    # One (offset, length, crc) row per needed segment, chunk-major: the
    # order the writer laid them out in, so file-adjacent segments are
    # neighbours here and coalesce into single extents — one readv segment
    # per contiguous byte range, all landing back-to-back in one buffer.
    wanted = table[sel][:, need_ids].reshape(-1, 3)
    offs, lens = wanted[:, 0], wanted[:, 1]
    stops = np.cumsum(lens)
    begins = stops - lens
    opens_extent = np.ones(len(wanted), dtype=bool)
    opens_extent[1:] = offs[1:] != offs[:-1] + lens[:-1]
    ext = np.flatnonzero(opens_extent)
    nbytes = int(lens.sum())
    landing = memoryview(bytearray(nbytes))
    header = bytearray(HEADER_BYTES)
    segments: list = [(0, header)]
    segments += [
        (offset, landing[lo:hi])
        for offset, lo, hi in zip(
            (HEADER_BYTES + offs[ext]).tolist(),
            begins[ext].tolist(),
            np.append(begins[ext[1:]], nbytes).tolist(),
        )
    ]
    backend.readv(path, segments, actor=actor)
    if decode_stats is not None:
        decode_stats["vectorized_runs"] = (
            decode_stats.get("vectorized_runs", 0) + len(ext)
        )
        decode_stats["bytes"] = decode_stats.get("bytes", 0) + nbytes
    version, total = _parse_header(bytes(header), path, dtype)
    if version < DATA_VERSION_COLUMNAR:
        raise DataFileError(
            f"{path}: expected a columnar (v4) file, found version {version}"
        )
    if total != index.total_particles:
        raise DataFileError(
            f"{path}: chunk index covers {index.total_particles} particles, "
            f"header says {total}"
        )
    # Pass 1, per segment: verify, inflate.  A failure costs its chunk.
    raw_lens = counts[:, None] * np.array([col.nbytes for col in need])
    inflated: list = []
    lost: dict[int, tuple[int, str, str]] = {}
    for k, (lo, hi, crc, itemsize, raw_len) in enumerate(
        zip(
            begins.tolist(),
            stops.tolist(),
            wanted[:, 2].tolist(),
            [col.itemsize for col in need] * len(sel),
            raw_lens.reshape(-1).tolist(),
        )
    ):
        enc = landing[lo:hi]
        actual = zlib.crc32(enc)
        if actual == crc:
            try:
                inflated.append(codec.inflate(enc, itemsize, raw_len))
                continue
            except DataFileError as exc:
                if strict:
                    raise
                why = f": {exc}"
        else:
            why = (
                f" segment CRC32 mismatch — stored {crc:#010x}, "
                f"computed {actual:#010x}"
            )
        at, j = divmod(k, len(need))
        ci, name = int(sel[at]), need[j].name
        detail = f"chunk {ci} column {name!r}{why}"
        if strict:
            raise DataChecksumError(f"{path}: {detail}")
        inflated.append(None)
        lost.setdefault(at, (ci, name, detail))
    if skipped is not None:
        skipped.extend(lost.values())
    # Pass 2, per column per stretch of equal-sized surviving chunks: one
    # unshuffle and one scatter.  Survivors pack to the head of ``out``.
    keep = np.delete(np.arange(len(sel)), list(lost))
    if not len(keep):
        return 0
    kept = counts[keep]
    cuts = [0, *(np.flatnonzero(kept[1:] != kept[:-1]) + 1).tolist(), len(keep)]
    for j, col in enumerate(need):
        parts = inflated[j :: len(need)]
        if lost:
            parts = [parts[at] for at in keep.tolist()]
        pos = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            n = int(kept[lo]) * (hi - lo)
            _column_scatter(
                out, pos, n, col, codec.decode_run(parts[lo:hi], col.itemsize)
            )
            pos += n
    return int(kept.sum())


# -- prefix checksums ----------------------------------------------------------


def prefix_checksum_boundaries(count: int, base: int, scale: int) -> list[int]:
    """Particle counts at which prefix checksums are recorded.

    Boundaries follow the per-file LOD ladder for a single reader: level
    ``l`` contributes ``base * scale**l`` records, so boundaries are the
    cumulative level counts clipped to the file's total.  The last boundary
    always equals ``count`` (for non-empty files), so the full payload is
    always covered.
    """
    if count < 0:
        raise DataFileError(f"negative particle count {count}")
    bounds: list[int] = []
    cum, size = 0, base
    while cum < count:
        cum = min(count, cum + size)
        bounds.append(cum)
        size *= scale
    return bounds


def payload_prefix_checksums(
    payload: bytes | memoryview, itemsize: int, boundaries: list[int]
) -> list[tuple[int, int]]:
    """``(count, CRC32 of payload[:count*itemsize])`` per boundary.

    Computed incrementally over a ``memoryview`` — one pass, no slice
    copies, regardless of how many boundaries there are.
    """
    view = memoryview(payload)
    out: list[tuple[int, int]] = []
    crc, pos = 0, 0
    for b in boundaries:
        end = b * itemsize
        if end > view.nbytes:
            raise DataFileError(
                f"checksum boundary {b} exceeds payload "
                f"({view.nbytes // max(itemsize, 1)} records)"
            )
        crc = zlib.crc32(view[pos:end], crc)
        pos = end
        out.append((b, crc))
    return out


def compute_file_checksums(batch: ParticleBatch, base: int, scale: int) -> dict:
    """The manifest checksum entry for one data file's payload.

    ``payload_crc32`` covers the full payload (records only, no header);
    ``prefixes`` holds ``[count, crc32]`` pairs at the per-file LOD
    boundaries of :func:`prefix_checksum_boundaries`.
    """
    boundaries = prefix_checksum_boundaries(len(batch), base, scale)
    prefixes = payload_prefix_checksums(
        _payload_view(batch), batch.dtype.itemsize, boundaries
    )
    return {
        # The last boundary is the whole payload, so the CRC chain already
        # ended on payload_crc32 (0 for the empty file: no boundaries).
        "payload_crc32": prefixes[-1][1] if prefixes else 0,
        "prefixes": [[c, crc] for c, crc in prefixes],
    }
