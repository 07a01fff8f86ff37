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

    ...     ...   trailer body (binary, see RecoveryTrailer.to_bytes)
    -12     4     trailer magic b"RCVB"
    -8      4     trailer body length (u32)
    -4      4     CRC32 of the trailer body (u32)

The trailer redundantly carries everything the dataset-level metadata knows
about this one file — its ``spatial.meta`` record (box id, aggregator rank,
bounding box, per-attribute ranges, chunk section), encoded by the table's
own record encoder so its section equals the table's byte for byte; the
file's payload/prefix checksums and codec; the dtype descr and LOD
parameters — so a dataset whose spatial table and manifest are lost
can be rebuilt purely from surviving data files (:mod:`repro.core.repair`).
It sits entirely past the footer: the version gate lets v3 length checks
tolerate the extra tail, and v1/v2 files simply have none.  The tail magic
names the body's encoding: files written before the binary trailer end in
``RCVT`` and a text body, decoded by :mod:`repro.format.legacy` into the
same :class:`RecoveryTrailer`.

**Version 4** keeps the same header/footer/trailer framing but stores the
payload *column-oriented*: for each spatial chunk (the sub-file chunk index
of :mod:`repro.format.chunks`), one contiguous *segment* per attribute
column — ``x``, ``y``, ``z``, then every other dtype field — each passed
through a named codec (:mod:`repro.format.codecs`) before storage.  The
header's record size still records the *logical* row itemsize (the dtype
guard), while the chunk index grows an ``(offset, encoded_length, crc32)``
descriptor per segment (offsets relative to the payload start).  The footer
CRC and ``payload_crc32`` cover the *stored* (encoded) payload; the per-LOD
prefix checksums keep covering the *logical* row payload, so LOD salvage
semantics carry over unchanged.  A v4 file is self-describing through its
trailer (chunk geometry + segment table + codec name), honouring the same
recovery contract as v3.

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

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BackendError,
    DataChecksumError,
    DataFileError,
    TransientBackendError,
)
from repro.format.chunks import FileChunkIndex, Runs, concat_ranges
from repro.format.codecs import get_codec
from repro.format.metadata import (
    MetadataRecord,
    pack_names,
    pack_record,
    unpack_names,
    unpack_record,
)
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

TRAILER_MAGIC = b"RCVB"
#: Tail magic of the self-describing text trailers files carried before the
#: binary one (decoded by :mod:`repro.format.legacy`).
LEGACY_TRAILER_MAGIC = b"RCVT"
_TRAILER_FOOTER = struct.Struct("<4sII")
TRAILER_FOOTER_BYTES = _TRAILER_FOOTER.size
_U32 = struct.Struct("<I")
#: ``payload_crc32 | num_prefixes | lod_base | lod_scale``
_FACTS = struct.Struct("<IIQQ")
_PREFIX = struct.Struct("<QI")
#: How deep structured fields may nest in a trailer's dtype descr.
_MAX_DESCR_DEPTH = 8

#: Versions this reader understands.
SUPPORTED_DATA_VERSIONS = (1, 2, 3, 4)


# -- the recovery trailer --------------------------------------------------------


@dataclass(frozen=True)
class RecoveryTrailer:
    """The self-describing tail of a v3/v4 data file.

    One trailer carries every fact about its file that otherwise lives only
    in the dataset-level ``spatial.meta`` record and the manifest's
    checksum entry, making the file recoverable without either:

    * ``record`` — the file's table record, chunk section included, encoded
      by the table's own :func:`~repro.format.metadata.pack_record`;
    * the manifest entry — ``payload_crc32``, the per-LOD ``prefixes`` and
      the columnar ``codec`` (None for row files);
    * dataset facts — the particle ``dtype_descr`` and the LOD parameters,
      identical across all files of one dataset.

    Serialised as a little-endian body followed by a 12-byte checksummed
    tail (magic | body length | body CRC32), appended *after* the data
    footer so it is invisible to plain payload reads.
    """

    record: MetadataRecord
    payload_crc32: int
    #: ``(count, crc32)`` at each per-file LOD boundary.
    prefixes: tuple[tuple[int, int], ...]
    codec: str | None
    dtype_descr: list
    lod_base: int
    lod_scale: int
    lod_heuristic: str
    lod_seed: int | None

    @property
    def attr_names(self) -> tuple[str, ...]:
        """The indexed attributes, in metadata-table order."""
        return tuple(self.record.attr_ranges)

    @property
    def checksum_entry(self) -> dict:
        """The manifest ``checksums`` entry this trailer reconstructs, plus
        its record's chunk ``section`` — what repair compares."""
        entry = {
            "payload_crc32": int(self.payload_crc32),
            "prefixes": [[int(c), int(crc)] for c, crc in self.prefixes],
        }
        if self.record.section:
            entry["section"] = self.record.section
        if self.codec is not None:
            entry["codec"] = str(self.codec)
        return entry

    def to_bytes(self) -> bytes:
        """Body + tail::

            u32 num_attrs | num_attrs x (u32 name_len | name utf-8)
            record (table v5 layout, attribute ranges in that order)
            u32 payload_crc32 | u32 num_prefixes | u64 lod_base | u64 lod_scale
            num_prefixes x (u64 count | u32 crc32)
            codec | lod_heuristic (u32 len | utf-8; empty codec = row file)
            lod_seed (u32 len | signed little-endian int; empty = None)
            dtype descr (see _pack_descr)
        """
        names = self.attr_names
        seed = None if self.lod_seed is None else int(self.lod_seed)
        try:
            body = b"".join(
                (
                    _U32.pack(len(names)),
                    pack_names(names),
                    pack_record(self.record, names),
                    _FACTS.pack(
                        self.payload_crc32, len(self.prefixes),
                        self.lod_base, self.lod_scale,
                    ),
                    *(_PREFIX.pack(c, crc) for c, crc in self.prefixes),
                    _blob((self.codec or "").encode("utf-8")),
                    _blob(self.lod_heuristic.encode("utf-8")),
                    _blob(
                        b"" if seed is None
                        else seed.to_bytes((seed.bit_length() + 8) // 8, "little", signed=True)
                    ),
                    _pack_descr(self.dtype_descr),
                )
            )
        except (struct.error, TypeError, ValueError, AttributeError) as exc:
            raise DataFileError(f"recovery trailer cannot be encoded: {exc}") from exc
        return body + _TRAILER_FOOTER.pack(TRAILER_MAGIC, len(body), zlib.crc32(body))

    @classmethod
    def from_bytes(cls, body: bytes, path: str) -> "RecoveryTrailer":
        """Inverse of :meth:`to_bytes` over the body (tail stripped)."""
        cur = _Cursor(body)
        try:
            (nattrs,) = cur.unpack(_U32)
            names, cur.pos = unpack_names(body, cur.pos, nattrs)
            record, cur.pos = unpack_record(body, cur.pos, names)
            crc, nprefixes, base, scale = cur.unpack(_FACTS)
            prefixes = tuple(_PREFIX.iter_unpack(cur.take(_PREFIX.size * nprefixes)))
            codec, heuristic = cur.take_blob(), cur.take_blob()
            seed = cur.take_blob()
            descr = _unpack_descr(cur)
            if cur.pos != len(body):
                raise ValueError(f"{len(body) - cur.pos} trailing bytes")
            return cls(
                record, crc, prefixes, codec.decode("utf-8") or None, descr,
                base, scale, heuristic.decode("utf-8"),
                int.from_bytes(seed, "little", signed=True) if seed else None,
            )
        except (ValueError, struct.error) as exc:
            raise DataFileError(
                f"{path}: malformed recovery trailer body: {exc}"
            ) from exc


def _blob(raw: bytes) -> bytes:
    return _U32.pack(len(raw)) + raw


class _Cursor:
    """Bounds-checked reads over a trailer body."""

    def __init__(self, raw: bytes):
        self.raw, self.pos = raw, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ValueError(f"truncated at byte {self.pos} (needs {n} more)")
        self.pos += n
        return self.raw[self.pos - n : self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def take_blob(self) -> bytes:
        return self.take(*self.unpack(_U32))


def _pack_descr(descr, depth: int = 0) -> bytes:
    """A NumPy descr in list form (:func:`~repro.format.manifest.dtype_to_descr`):
    ``u32 fields``, then per field ``name | u8 nested | format | u32 ndim |
    ndim x u64 dims``, where a nested format is itself a descr and a scalar
    one its typestr (``u32 len | utf-8``)."""
    if not isinstance(descr, list) or depth > _MAX_DESCR_DEPTH:
        raise ValueError(f"malformed dtype descr {descr!r}")
    parts = [_U32.pack(len(descr))]
    for item in descr:
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ValueError(f"malformed dtype descr field {item!r}")
        name, fmt, *shape = item
        dims = shape[0] if shape else []
        nested = isinstance(fmt, list)
        parts += [
            _blob(name.encode("utf-8")),
            bytes([nested]),
            _pack_descr(fmt, depth + 1) if nested else _blob(fmt.encode("utf-8")),
            _U32.pack(len(dims)),
            struct.pack(f"<{len(dims)}Q", *dims),
        ]
    return b"".join(parts)


def _unpack_descr(cur: _Cursor, depth: int = 0) -> list:
    if depth > _MAX_DESCR_DEPTH:
        raise ValueError("dtype descr nests too deep")
    descr: list = []
    for _ in range(*cur.unpack(_U32)):
        name = cur.take_blob().decode("utf-8")
        nested = cur.take(1)[0]
        if nested > 1:
            raise ValueError(f"bad dtype descr field kind {nested}")
        fmt = _unpack_descr(cur, depth + 1) if nested else cur.take_blob().decode("utf-8")
        (ndim,) = cur.unpack(_U32)
        dims = list(struct.unpack(f"<{ndim}Q", cur.take(8 * ndim)))
        descr.append([name, fmt, dims] if ndim else [name, fmt])
    return descr


def _trailer_tail(tail: bytes, size: int, path: str) -> tuple[bytes, int, int]:
    """``(magic, body_len, crc32)`` of a trailer's 12-byte tail, checked
    against the size of the file it ends."""
    magic, body_len, stored = _TRAILER_FOOTER.unpack(tail)
    if magic not in (TRAILER_MAGIC, LEGACY_TRAILER_MAGIC):
        raise DataFileError(f"{path}: bad recovery-trailer magic {magic!r}")
    if body_len > size - TRAILER_FOOTER_BYTES:
        raise DataFileError(
            f"{path}: recovery-trailer body length {body_len} exceeds file"
        )
    return magic, body_len, stored


def extract_recovery_trailer(raw: bytes, path: str) -> RecoveryTrailer:
    """Parse the recovery trailer from a complete v3/v4 file image.  Files
    written before the binary trailer decode through
    :mod:`repro.format.legacy` into the same object."""
    if len(raw) < TRAILER_FOOTER_BYTES:
        raise DataFileError(f"{path}: no recovery trailer ({len(raw)} bytes)")
    magic, body_len, stored = _trailer_tail(raw[-TRAILER_FOOTER_BYTES:], len(raw), path)
    body = raw[len(raw) - TRAILER_FOOTER_BYTES - body_len : -TRAILER_FOOTER_BYTES]
    actual = zlib.crc32(body)
    if actual != stored:
        raise DataChecksumError(
            f"{path}: recovery-trailer CRC32 mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    if magic == TRAILER_MAGIC:
        return RecoveryTrailer.from_bytes(bytes(body), path)
    from repro.format.legacy import decode_legacy_trailer

    return decode_legacy_trailer(bytes(body), path)


def read_recovery_trailer(
    backend: FileBackend, path: str, actor: int = -1
) -> RecoveryTrailer:
    """Read just the recovery trailer of ``path`` via ranged reads."""
    size = backend.size(path)
    if size < HEADER_BYTES + FOOTER_BYTES + TRAILER_FOOTER_BYTES:
        raise DataFileError(f"{path}: no recovery trailer ({size} bytes)")
    tail = backend.read_range(path, size - TRAILER_FOOTER_BYTES,
                              TRAILER_FOOTER_BYTES, actor=actor)
    _magic, body_len, _stored = _trailer_tail(bytes(tail), size, path)
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
    must carry the segment-bearing chunk section plus the codec name — a v4
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
    scrub and repair's shared file inspection starts from (it checks the
    record size against the dataset dtype itself).
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


def _readv_with_header(
    backend: FileBackend,
    path: str,
    header: bytearray,
    segments: list,
    end: int,
    actor: int,
) -> bool:
    """Land ``header`` and ``segments``, which end at byte ``end``, in one
    :meth:`FileBackend.readv` (a single open).

    Returns ``False`` if the request runs past the end of the file.  The
    backend's own bounds check finds that, and ``size`` is asked only when
    the readv failed, so a healthy read stats its file once.  Past the
    end, only the header is read: the caller's checks against its particle
    count raise then, and a request the header does cover means the file is
    shorter than its header says.  A read failing inside the file re-raises.
    """
    try:
        backend.readv(path, [(0, header), *segments], actor=actor)
        return True
    except TransientBackendError:
        raise
    except BackendError:
        if end <= backend.size(path):
            raise
    header[:] = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    return False


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
    open); like it, carries no whole-file verification.  A file too short
    for the particles its header records raises.  Returns the particle
    count read.
    """
    count = len(out)
    if offset_particles < 0:
        raise DataFileError(
            f"negative count/offset ({count}, {offset_particles}) for {path}"
        )
    header = bytearray(HEADER_BYTES)
    start = HEADER_BYTES + offset_particles * dtype.itemsize
    nbytes = count * dtype.itemsize
    landed = True
    if nbytes:
        landed = _readv_with_header(
            backend, path, header, [(start, out.view(np.uint8))], start + nbytes, actor
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
    if not landed:
        raise DataFileError(
            f"{path}: truncated before particle {offset_particles + count} "
            f"of the {total} its header records"
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
    # mismatch) or that runs past the end of the file takes the header-only
    # read and raises from the same checks.
    landed = True
    if not negative.any() and runs.total == len(out):
        dest = memoryview(out.view(np.uint8))
        begins = runs.offsets * itemsize
        segments = [
            (offset, dest[lo:hi])
            for offset, lo, hi in zip(
                (HEADER_BYTES + starts * itemsize).tolist(),
                begins.tolist(),
                (begins + counts * itemsize).tolist(),
            )
        ]
        end = HEADER_BYTES + int(ends.max(initial=0)) * itemsize
        landed = _readv_with_header(backend, path, header, segments, end, actor)
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
    if not landed:
        raise DataFileError(
            f"{path}: truncated before particle {int(ends.max())} of the "
            f"{total} its header records"
        )
    return runs.total


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
    batch: ParticleBatch, index: FileChunkIndex, codec_name: str
) -> tuple[bytes, np.ndarray]:
    """Transpose ``batch`` into the v4 encoded payload.

    ``index`` is the file's chunk index from
    :func:`repro.format.chunks.build_chunk_entry`.  Returns the stored
    payload bytes and the int64 ``(chunks, columns, 3)`` segment table —
    ``(offset, encoded_length, crc32)`` per chunk and canonical column
    (offsets relative to the payload start).
    """
    codec = get_codec(codec_name)
    cols = columnar_columns(batch.dtype)
    rowsv = batch.data
    parts: list[bytes] = []
    triples: list[int] = []
    off = 0
    for start, count in zip(index.starts.tolist(), index.counts.tolist()):
        rows = rowsv[start : start + count]
        for col in cols:
            enc = codec.encode(_column_bytes(rows, col), col.itemsize)
            triples += (off, len(enc), zlib.crc32(enc))
            parts.append(enc)
            off += len(enc)
    segments = np.array(triples, dtype=np.int64).reshape(len(index), len(cols), 3)
    return b"".join(parts), segments


def _segment_rows(index: FileChunkIndex, cols) -> list | None:
    """``index``'s segment table as per-chunk ``[[offset, length, crc32],
    ...]`` lists, or None unless every chunk has one segment per column."""
    segs = index.segments
    if segs is None:
        return None if len(index) else []
    return segs.tolist() if segs.shape[1] == len(cols) else None


def columnar_payload_length(index: FileChunkIndex) -> int:
    """Stored payload byte length implied by a (validated) segment table."""
    segs = index.segment_table
    return int((segs[..., 0] + segs[..., 1]).max(initial=0))


def decode_columnar_payload(
    payload: bytes,
    index: FileChunkIndex,
    codec_name: str,
    dtype: np.dtype,
    path: str,
) -> np.ndarray:
    """Decode a v4 payload back into logical row records.

    ``index`` carries the segment table; its chunks land back to back from
    row 0.  Every segment's CRC32 is verified before decode; a mismatch
    raises :class:`~repro.errors.DataChecksumError` naming the chunk and
    column.
    """
    cols = columnar_columns(dtype)
    rows = _segment_rows(index, cols)
    if rows is None:
        raise DataFileError(
            f"{path}: chunks lack segment descriptors for {len(cols)} columns"
        )
    out = np.empty(index.total_particles, dtype=dtype)
    pos = 0
    for ci, (count, chunk) in enumerate(zip(index.counts.tolist(), rows)):
        for col, (off, ln, crc) in zip(cols, chunk):
            enc = payload[off : off + ln]
            if off < 0 or len(enc) != ln:
                raise DataFileError(
                    f"{path}: chunk {ci} column {col.name!r} segment "
                    f"[{off}, {off + ln}) exceeds payload ({len(payload)} bytes)"
                )
            actual = zlib.crc32(enc)
            if actual != crc:
                raise DataChecksumError(
                    f"{path}: chunk {ci} column {col.name!r} segment CRC32 "
                    f"mismatch — stored {crc:#010x}, computed {actual:#010x}"
                )
            raw = get_codec(codec_name).decode(enc, col.itemsize, count * col.nbytes)
            _column_scatter(out, pos, count, col, raw)
        pos += count
    return out


def scan_columnar_segments(
    raw: bytes, index: FileChunkIndex, dtype: np.dtype
) -> list[tuple[int, str, str]]:
    """CRC-verify every column segment of a v4 file image.

    Returns one ``(chunk, column-name, detail)`` triple per failing segment
    (bad extent or CRC32 mismatch) — empty when the stored payload is
    intact.  Unlike :func:`decode_columnar_payload` this keeps going after
    a failure, so a scrub can pinpoint *all* damaged segments in one pass.
    """
    cols = columnar_columns(dtype)
    rows = _segment_rows(index, cols)
    if rows is None:
        return [(0, "*", f"chunks lack segment descriptors for {len(cols)} columns")]
    bad: list[tuple[int, str, str]] = []
    for ci, chunk in enumerate(rows):
        for col, (off, ln, crc) in zip(cols, chunk):
            seg = raw[HEADER_BYTES + off : HEADER_BYTES + off + ln]
            if off < 0 or len(seg) != ln:
                detail = f"[{off}, {off + ln}) exceeds the file"
            elif zlib.crc32(seg) != crc:
                detail = (
                    f"CRC32 mismatch — stored {crc:#010x}, "
                    f"computed {zlib.crc32(seg):#010x}"
                )
            else:
                continue
            bad.append((ci, col.name, f"chunk {ci} column {col.name!r} segment {detail}"))
    return bad


def _read_columnar_image(
    raw: bytes, path: str, dtype: np.dtype, count: int
) -> ParticleBatch:
    """Decode a complete v4 file image (the read_data_file slow path)."""
    trailer = extract_recovery_trailer(raw, path)
    if count and not trailer.record.section:
        raise DataFileError(
            f"{path}: columnar file trailer carries no chunk index"
        )
    index = FileChunkIndex.empty(trailer.codec)
    if trailer.record.section:
        index = FileChunkIndex.unpack(trailer.record.section, path).validated(
            count, path, trailer.codec
        )
    enc_len = columnar_payload_length(index) if len(index) else 0
    expected = HEADER_BYTES + enc_len + FOOTER_BYTES
    if len(raw) < expected:
        raise DataFileError(
            f"{path}: expected {expected} bytes for {count} particles, "
            f"found {len(raw)}"
        )
    verify_data_footer(raw[:expected], path)
    arr = decode_columnar_payload(
        raw[HEADER_BYTES : HEADER_BYTES + enc_len],
        index,
        trailer.codec or "none",
        dtype,
        path,
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
