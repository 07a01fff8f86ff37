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

This module owns every rule of the layout; scrub, repair and the baseline
reader check and rebuild files with the read path's own code
(:func:`verify_image`, :func:`rebuild_image`, :func:`read_whole_file`).

Besides the footer, the writer records **per-LOD-level prefix checksums** in
the manifest (see :func:`compute_file_checksums`): CRC32s of the payload up
to each per-file level boundary.  Prefix reads — which never see the footer
— verify against these when the requested count lands on a boundary, and the
scrubber verifies all of them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

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
from repro.io.backend import FileBackend, ReadRequest
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


#: CRC-32's generator polynomial, bit-reflected as zlib uses it.
_CRC32_POLY = 0xEDB88320


def _crc32_mul(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial, in zlib's reflected order;
    ``a`` is non-zero (here always a power of x, which never is)."""
    product, bit = 0, 1 << 31
    while True:
        if a & bit:
            product ^= b
            if not a & (bit - 1):
                return product
        bit >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1


def _crc32_squares() -> list[int]:
    """``x^(2^k)`` modulo the polynomial for k = 0..31."""
    powers = [1 << 30]  # x^1
    for _ in range(31):
        powers.append(_crc32_mul(powers[-1], powers[-1]))
    return powers


_CRC32_X2N = _crc32_squares()


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = zlib.crc32(a)``,
    ``crc2 = zlib.crc32(b)`` and ``len2 = len(b)``, without touching the
    bytes (zlib's ``crc32_combine``, which Python's ``zlib`` lacks).

    Shifts ``crc1`` over ``len2`` zero bytes by multiplying with
    ``x^(8 * len2)``, built from one squared power per set bit of
    ``len2``: some forty microseconds whatever the length.
    """
    # x^0; bit i of len2 is 8 * 2^i zero bits, the table's power i + 3.
    shift, k = 1 << 31, 3
    while len2:
        if len2 & 1:
            shift = _crc32_mul(_CRC32_X2N[k & 31], shift)
        len2 >>= 1
        k += 1
    return _crc32_mul(shift, crc1) ^ crc2


def build_data_blob(
    payload: bytes | memoryview,
    itemsize: int,
    count: int,
    trailer: RecoveryTrailer | None = None,
    version: int | None = None,
    payload_crc32: int | None = None,
) -> bytes:
    """Assemble a complete data-file image from a raw payload.

    Shared by :func:`write_data_file` and the repair subsystem's torn-file
    truncation, which rebuilds a shorter file from salvaged payload bytes.
    Without an explicit ``version`` the presence of a trailer selects v3
    over v2; columnar writers pass ``version=DATA_VERSION_COLUMNAR`` with
    an already-encoded ``payload`` (``itemsize`` stays the logical row
    itemsize — the dtype guard).  A writer that has CRC'd the payload
    already passes ``payload_crc32`` (``zlib.crc32(payload)``), and the
    footer is combined from it instead of a second pass over the bytes.
    """
    if version is None:
        version = DATA_VERSION if trailer is not None else DATA_VERSION_PLAIN
    if version >= DATA_VERSION_COLUMNAR and trailer is None:
        raise DataFileError("columnar (v4) files require a recovery trailer")
    header = _HEADER.pack(DATA_MAGIC, version, itemsize, count)
    if payload_crc32 is None:
        crc = zlib.crc32(payload, zlib.crc32(header))
    else:
        crc = crc32_combine(zlib.crc32(header), payload_crc32, memoryview(payload).nbytes)
    footer = _FOOTER.pack(FOOTER_MAGIC, crc)
    tail = trailer.to_bytes() if trailer is not None else b""
    return b"".join((header, payload, footer, tail))  # the payload's one copy


def write_data_file(
    backend: FileBackend,
    path: str,
    batch: ParticleBatch,
    actor: int = -1,
    trailer: RecoveryTrailer | None = None,
    payload_crc32: int | None = None,
) -> int:
    """Write ``batch`` (already LOD-ordered) to ``path``; returns bytes written.

    With a :class:`RecoveryTrailer` the file is written as format v3
    (self-describing); without one it stays a plain v2 file, byte-identical
    to what earlier writers produced.  ``payload_crc32``, if known, spares
    the footer a pass over the payload (see :func:`build_data_blob`).
    """
    blob = build_data_blob(
        _payload_view(batch), batch.dtype.itemsize, len(batch), trailer,
        payload_crc32=payload_crc32,
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
    file without them is unreadable.  The trailer's ``payload_crc32`` is
    the encoded payload's, so the footer is combined from it.  Returns
    bytes written.
    """
    blob = build_data_blob(
        payload, itemsize, count, trailer, version=DATA_VERSION_COLUMNAR,
        payload_crc32=trailer.payload_crc32,
    )
    backend.write_file(path, blob, actor=actor)
    return len(blob)


class DataHeader(NamedTuple):
    """A data file's fixed header: ``version``, ``rec_size`` (the logical
    row itemsize, the dtype guard) and the particle ``count``."""

    version: int
    rec_size: int
    count: int

    @property
    def trailed(self) -> bool:
        """v3+ files end in a recovery trailer."""
        return self.version >= 3

    @property
    def columnar(self) -> bool:
        """v4 files store their payload as per-chunk column segments."""
        return self.version >= DATA_VERSION_COLUMNAR


def has_data_magic(raw: bytes) -> bool:
    """Whether ``raw`` starts like a data file: a whole header, the magic."""
    return len(raw) >= HEADER_BYTES and raw[:8] == DATA_MAGIC


def parse_data_header(raw: bytes, path: str, dtype: np.dtype | None = None) -> DataHeader:
    """Validate the fixed header, and its record size against ``dtype``
    when one is given (scrub checks it against the dataset dtype itself)."""
    if len(raw) < HEADER_BYTES:
        raise DataFileError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, rec_size, count = _HEADER.unpack_from(raw)
    if magic != DATA_MAGIC:
        raise DataFileError(f"{path}: bad magic {magic!r}")
    if version not in SUPPORTED_DATA_VERSIONS:
        raise DataFileError(f"{path}: unsupported version {version}")
    if dtype is not None and rec_size != dtype.itemsize:
        raise DataFileError(
            f"{path}: record size {rec_size} does not match dtype itemsize "
            f"{dtype.itemsize} — manifest and data file disagree"
        )
    return DataHeader(int(version), int(rec_size), int(count))


def _check_size(path: str, version: int, count: int, nbytes: int, size: int) -> None:
    """The size rule of a file holding ``count`` particles in ``nbytes`` of
    stored payload: v1/v2 files are exactly header + payload (+ the v2
    footer), v3+ files at least that long (the recovery trailer follows)."""
    expected = HEADER_BYTES + nbytes + (FOOTER_BYTES if version >= 2 else 0)
    if (size < expected) if version >= 3 else (size != expected):
        raise DataFileError(
            f"{path}: expected {expected} bytes for {count} particles, found {size}"
        )


def check_whole_file(
    path: str, version: int, count: int, nbytes: int, size: int | None,
    header, payload, footer,
) -> None:
    """The whole-file check: the file's byte ``size`` by :func:`_check_size`
    (None where a landed v3+ footer proved the file long enough), then the
    v2+ ``footer`` — its bytes, or a callable fetching them once the size
    holds — against the CRC32 of ``header`` and the ``nbytes`` of
    ``payload``.  A full row read and :func:`verify_image` both run it."""
    if size is not None:
        _check_size(path, version, count, nbytes, size)
    if version < 2:
        return
    magic, stored = _FOOTER.unpack(bytes(footer() if callable(footer) else footer))
    if magic != FOOTER_MAGIC:
        raise DataChecksumError(f"{path}: bad footer magic {magic!r}")
    actual = zlib.crc32(payload, zlib.crc32(header))
    if actual != stored:
        raise DataChecksumError(
            f"{path}: CRC32 mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )


def _readv_with_header(
    backend: FileBackend,
    path: str,
    header: bytearray,
    parts,
    actor: int,
) -> bool:
    """Land ``header`` and the ``(view, offsets, lengths)`` ``parts`` as one
    :class:`~repro.io.backend.ReadRequest` (a single open).

    Returns ``False`` if the request runs past the end of the file.  The
    backend's own bounds check finds that, and ``size`` is asked only when
    the readv failed, so a healthy read stats its file once.  Past the
    end, only the header is read: the caller's checks against its particle
    count raise then, and a request the header does cover means the file is
    shorter than its header says.  A read failing inside the file re-raises.
    """
    request = ReadRequest([(header, (0,), (HEADER_BYTES,)), *parts])
    try:
        backend.readv(path, request, actor=actor)
        return True
    except TransientBackendError:
        raise
    except BackendError:
        size = backend.size(path)
        if request.end <= size:
            raise
    if size < HEADER_BYTES:
        raise DataFileError(f"{path}: truncated header ({size} bytes)")
    header[:] = backend.read_range(path, 0, HEADER_BYTES, actor=actor)
    return False


#: Up to this many runs a row read is planned with Python ints; longer run
#: lists go through numpy, whose per-call overhead pays off only there.
_FEW_RUNS = 8


def read_particle_runs_into(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    index,
    runs,
    out: np.ndarray,
    *,
    actor: int = -1,
    strict: bool = True,
    skipped: list | None = None,
    decode_stats: dict | None = None,
) -> int:
    """The one payload read: land the particle ``runs`` of ``path`` in ``out``.

    ``runs`` are ascending, disjoint ``(start, count)`` particle runs; each
    lands in the next ``count`` rows of ``out``, so they must sum to
    ``len(out)``.  Every read shape is a run list:

    * ``((0, n),)`` with ``n`` the header's count is the whole file: a row
      file's v2+ CRC footer is checked, and v1/v2 files must be exactly
      their expected size;
    * ``((0, k),)`` is an LOD prefix, ``((a, k),)`` a progressive slice;
    * many runs are the chunks a box or ``where`` query kept.

    ``dtype`` is the file's full logical dtype (the header's record-size
    guard); ``out`` may carry a projection of it.  ``index`` is the file's
    :class:`~repro.format.chunks.FileChunkIndex`, or None.  An index with a
    codec names a columnar (v4) file: only the projected columns' segments
    of the chunks covering the runs are fetched, and runs that miss chunk
    boundaries are trimmed out of the decoded chunks (see
    :func:`_read_columnar`).  The header that lands must agree with the
    layout the index names.

    Header and payload arrive in one :meth:`FileBackend.readv` (one open);
    a whole row file whose index predicts it lands its footer there too.
    ``decode_stats`` (if given) receives ``vectorized_runs`` (payload
    extents read) and ``bytes`` (payload bytes fetched) of the call that
    succeeded — named to avoid the ``stats`` kwarg
    :meth:`~repro.io.retry.RetryPolicy.call` consumes.
    Empty runs read nothing.  Returns the particles delivered.
    """
    if skipped is not None:
        skipped.clear()
    projected = out.dtype != dtype
    if projected:
        for name in out.dtype.names or ():
            if name not in (dtype.fields or {}):
                raise DataFileError(
                    f"{path}: projected field {name!r} is not in the file dtype"
                )
    if index is not None and index.codec is not None:
        return _read_columnar(
            backend, path, dtype, index, Runs.of(runs), out,
            actor, strict, skipped, decode_stats,
        )
    # A row file lands whole records; a projection copies its fields out.
    rows = np.empty(len(out), dtype=dtype) if projected else out
    itemsize = dtype.itemsize
    # The runs as one flattened request: each run's file offset and byte
    # length, landing back to back in ``rows``.  A negative run forms no
    # valid range: it is raised from the checks below, after the header,
    # as is a run past the header's count.
    if len(runs) <= _FEW_RUNS:
        offsets, lengths, total, top, negative = [], [], 0, 0, False
        for start, count in runs:
            if count:
                negative = negative or start < 0 or count < 0
                offsets.append(HEADER_BYTES + start * itemsize)
                lengths.append(count * itemsize)
                total += count
                if start + count > top:
                    top = start + count
    else:
        arr = Runs.of(runs)
        offsets = (HEADER_BYTES + arr.starts * itemsize).tolist()
        lengths = (arr.counts * itemsize).tolist()
        total, top = arr.total, int((arr.starts + arr.counts).max())
        negative = bool((arr.starts < 0).any() or (arr.counts < 0).any())
    n = len(out)
    if not offsets and not n:
        return 0
    header = bytearray(HEADER_BYTES)
    # One run from the head is the whole file or an LOD prefix.  A whole
    # file the caller's index predicts (a validated index tiles the file:
    # its last chunk ends at the count) lands its footer in the same readv;
    # any other whole-file read fetches it once the header has said so.
    head = len(offsets) == 1 and offsets[0] == HEADER_BYTES
    indexed = None
    if head and index is not None and len(index) and top > index.starts[-1]:
        indexed = int(index.starts[-1] + index.counts[-1])
    footer = bytearray(FOOTER_BYTES) if head and top == indexed else None
    landed = True
    if not negative and total == n:
        payload = np.frombuffer(rows, np.uint8)
        parts = [(payload, offsets, lengths)]
        if footer is not None:
            parts.append((footer, (HEADER_BYTES + top * itemsize,), (FOOTER_BYTES,)))
        landed = _readv_with_header(backend, path, header, parts, actor)
    else:
        _readv_with_header(backend, path, header, (), actor)
    version, _rec_size, count = parse_data_header(bytes(header), path, dtype)
    if version >= DATA_VERSION_COLUMNAR:
        raise DataFileError(
            f"{path}: columnar (v4) file read without its chunk index's "
            "column segments"
        )
    if indexed is not None and count != indexed:
        raise DataFileError(
            f"{path}: chunk index covers {indexed} particles, header says {count}"
        )
    if negative or top > count:
        start, end = next(
            (s, s + c) for s, c in runs if c and (s < 0 or c < 0 or s + c > count)
        )
        raise DataFileError(
            f"{path}: run [{start}, {end}) exceeds particle count {count}"
        )
    if total != n:
        _check_fill(path, total, n)
    if head and top == count:
        # The whole file.  A readv that landed a v3 file's footer proves it
        # long enough; anything else asks for the size, and fetches a footer
        # the index did not predict once the size holds.
        nbytes = count * itemsize
        size = None if version >= 3 and landed and footer is not None else backend.size(path)
        if footer is None:
            footer = partial(
                backend.read_range, path, HEADER_BYTES + nbytes, FOOTER_BYTES, actor=actor
            )
        check_whole_file(path, version, count, nbytes, size, header, payload, footer)
        if not landed:  # a v1 file: the predicted footer lay past its end
            backend.readv(path, ReadRequest.one(HEADER_BYTES, payload), actor=actor)
    elif not landed:
        raise DataFileError(
            f"{path}: truncated before particle {top} of the {count} its header records"
        )
    if projected:
        for name in out.dtype.names or ():
            out[name] = rows[name]
    if decode_stats is not None:
        decode_stats["vectorized_runs"] = len(offsets)
        decode_stats["bytes"] = total * itemsize
    return total


def _check_fill(path: str, total: int, n: int) -> None:
    """Runs must fill the destination of ``n`` particles exactly."""
    if total > n:
        raise DataFileError(f"{path}: runs overflow destination of {n} particles")
    if total != n:
        raise DataFileError(
            f"{path}: runs cover {total} particles, destination holds {n}"
        )


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


def columnar_payload_length(index: FileChunkIndex) -> int:
    """Stored payload byte length implied by a (validated) segment table."""
    if not len(index):
        return 0
    segs = index.segment_table
    return int((segs[..., 0] + segs[..., 1]).max(initial=0))


def _segment_table(index: FileChunkIndex, cols, path: str) -> np.ndarray:
    """``index``'s ``(chunks, columns, 3)`` segment table, one segment per
    chunk for each of ``cols``."""
    table = index.segments
    if table is None:
        raise DataFileError(f"{path}: chunk index carries no column segments")
    if table.shape[1] != len(cols):
        raise DataFileError(
            f"{path}: chunk index has {table.shape[1]} segments per chunk "
            f"for {len(cols)} columns"
        )
    return table


class SegmentFault(NamedTuple):
    """One column segment that failed its CRC32 or, CRC-valid, its inflate."""

    chunk: int
    column: str
    #: ``chunk C column 'N'``, then why.
    detail: str


def _inflate_segments(
    landing, begins, stops, crcs, chunks, counts, need, codec, path: str, strict: bool
) -> tuple[list, list[SegmentFault]]:
    """Pass 1 of every columnar decode, one segment at a time: its CRC32,
    then its inflate — the steps that can fail per segment.

    The segments lie at ``[begins, stops)`` of ``landing`` in chunk-major
    order, one per column of ``need`` for each chunk (file chunk ids
    ``chunks``, particle ``counts``).  Returns the inflated segments, None
    where one failed, and a :class:`SegmentFault` for every failure;
    ``strict`` raises the first instead.
    """
    raw_lens = counts[:, None] * np.array([col.nbytes for col in need])
    inflated: list = []
    faults: list[SegmentFault] = []
    for k, (lo, hi, crc, itemsize, raw_len) in enumerate(
        zip(
            begins.tolist(),
            stops.tolist(),
            crcs.tolist(),
            [col.itemsize for col in need] * len(chunks),
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
        ci, name = int(chunks[at]), need[j].name
        detail = f"chunk {ci} column {name!r}{why}"
        if strict:
            raise DataChecksumError(f"{path}: {detail}")
        inflated.append(None)
        faults.append(SegmentFault(ci, name, detail))
    return inflated, faults


def _land_chunks(target: np.ndarray, inflated: list, counts, keep, need, codec) -> np.ndarray:
    """Pass 2 of every columnar decode: the chunks at positions ``keep`` of
    ``counts`` (whose segments ``inflated`` holds, chunk-major), packed to
    the head of ``target`` with one unshuffle and one scatter per column
    per stretch of equal-sized chunks.  Returns the kept chunks' counts."""
    kept = counts[keep]
    if not len(kept):
        return kept
    cuts = [0, *(np.flatnonzero(kept[1:] != kept[:-1]) + 1).tolist(), len(keep)]
    for j, col in enumerate(need):
        parts = inflated[j :: len(need)]
        if len(keep) != len(counts):
            parts = [parts[at] for at in keep.tolist()]
        pos = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            n = int(kept[lo]) * (hi - lo)
            _column_scatter(
                target, pos, n, col, codec.decode_run(parts[lo:hi], col.itemsize)
            )
            pos += n
    return kept


def _read_columnar(
    backend: FileBackend,
    path: str,
    dtype: np.dtype,
    index,
    runs: Runs,
    out: np.ndarray,
    actor: int,
    strict: bool,
    skipped: list | None,
    decode_stats: dict | None,
) -> int:
    """:func:`read_particle_runs_into` for a columnar (v4) file.

    The runs are rounded out to the chunks that cover them, and only the
    segments of fields present in ``out.dtype`` are read at all (attribute
    projection).  Header plus every needed segment arrive in one
    :meth:`FileBackend.readv` into one landing buffer, and file-adjacent
    segments are **coalesced** first: the writer lays a chunk's columns
    out back to back, so a contiguous chunk run arrives as one range of
    the request.  Every segment is then CRC32-verified and inflated on its
    own (:func:`_inflate_segments`), and the survivors unshuffled and
    scattered per stretch of equal-sized chunks (:func:`_land_chunks`).
    Runs that miss chunk boundaries decode their covering chunks into a
    scratch and are trimmed out of it.

    With ``strict=False`` a segment that fails its CRC (or decode) drops
    only its *chunk*: surviving rows pack to the front of ``out`` and the
    damaged chunks are appended to ``skipped`` as ``(chunk, column,
    detail)``.
    """
    cols = columnar_columns(dtype)
    table = _segment_table(index, cols, path)
    codec = get_codec(index.codec)
    names = out.dtype.names or ()
    need_ids = [j for j, col in enumerate(cols) if col.field in names]
    need = [cols[j] for j in need_ids]
    total = index.total_particles
    ends = runs.starts + runs.counts
    outside = np.flatnonzero((runs.starts < 0) | (ends < runs.starts) | (ends > total))
    if len(outside):
        bad = int(outside[0])
        raise DataFileError(
            f"{path}: run [{int(runs.starts[bad])}, {int(ends[bad])}) exceeds "
            f"particle count {total}"
        )
    _check_fill(path, runs.total, len(out))
    if not runs.total:
        return 0
    # The chunks covering the runs, each once (runs may share a chunk).
    edges = np.append(index.starts, total)
    first = np.searchsorted(edges, runs.starts, side="right") - 1
    sel = concat_ranges(first, np.searchsorted(edges, ends, side="left") - first)
    sel = sel[np.append(True, sel[1:] != sel[:-1])]
    counts = index.counts[sel]
    covered = int(counts.sum())
    target = out if covered == runs.total else np.empty(covered, dtype=out.dtype)
    # One (offset, length, crc) row per needed segment, chunk-major: the
    # order the writer laid them out in, so file-adjacent segments are
    # neighbours here and coalesce into single extents — one range of the
    # request per contiguous byte range, all landing back to back in one
    # buffer.
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
    extents = (
        landing,
        (HEADER_BYTES + offs[ext]).tolist(),
        np.diff(begins[ext], append=nbytes).tolist(),
    )
    landed = _readv_with_header(backend, path, header, (extents,), actor)
    version, _rec_size, count = parse_data_header(bytes(header), path, dtype)
    if version < DATA_VERSION_COLUMNAR:
        raise DataFileError(
            f"{path}: expected a columnar (v4) file, found version {version}"
        )
    if count != total:
        raise DataFileError(
            f"{path}: chunk index covers {total} particles, header says {count}"
        )
    if not landed:
        raise DataFileError(
            f"{path}: truncated before the segments its chunk index records"
        )
    if decode_stats is not None:
        decode_stats["vectorized_runs"] = len(ext)
        decode_stats["bytes"] = nbytes
    # A failing segment costs its chunk; survivors pack to the head of
    # ``target``.
    inflated, faults = _inflate_segments(
        landing, begins, stops, wanted[:, 2], sel, counts, need, codec, path, strict
    )
    keep = np.arange(len(sel))
    if faults:
        lost: dict[int, tuple] = {}
        for fault in faults:
            lost.setdefault(fault.chunk, fault[:3])  # each chunk's first
        if skipped is not None:
            skipped.extend(lost.values())
        keep = keep[~np.isin(sel, list(lost))]
    kept = _land_chunks(target, inflated, counts, keep, need, codec)
    if target is out:
        return int(kept.sum())
    # Trim: keep the decoded rows (by file position) that some run names.
    rows = concat_ranges(index.starts[sel[keep]], kept)
    at = np.searchsorted(runs.starts, rows, side="right") - 1
    inside = (at >= 0) & (rows < ends[at])
    got = int(np.count_nonzero(inside))
    out[:got] = target[: len(rows)][inside]
    return got


# -- whole images: verify, rebuild, read -----------------------------------------


@dataclass
class ImageVerdict:
    """What :func:`verify_image` found in one complete data-file image."""

    #: The stored payload (shorter where the file is).
    payload: memoryview
    #: The logical rows before the first damage: all of them when the file
    #: verified.
    rows: np.ndarray
    #: Why the file is too short (or, v1/v2, too long) for its header, and
    #: why its v2+ footer does not verify: the reader's errors, sans path.
    truncated: str = ""
    footer: str = ""
    #: Every column segment (v4) failing its CRC32 or its inflate.
    faults: list[SegmentFault] = field(default_factory=list)
    #: The v4 chunk index the image was checked under.
    index: FileChunkIndex | None = None

    @property
    def ok(self) -> bool:
        return not (self.truncated or self.footer or self.faults)

    def cut(self, count: int) -> tuple[int, bytes] | None:
        """The stored payload CRC32 and chunk section of this file cut to
        its first ``count`` particles — for a v4 file whole leading chunks,
        so None where ``count`` splits one."""
        if self.index is None:
            return zlib.crc32(self.payload[: count * self.rows.dtype.itemsize]), b""
        ends = np.cumsum(self.index.counts)
        k = int(np.searchsorted(ends, count)) + 1
        if ends[k - 1] != count:
            return None
        head = self.index[:k]
        return zlib.crc32(self.payload[: columnar_payload_length(head)]), head.to_section()


def verify_image(
    raw: bytes, path: str, version: int, count: int, dtype: np.dtype,
    index: FileChunkIndex | None = None,
) -> ImageVerdict:
    """Check a complete data-file image with the read path's own code,
    recording every failure instead of raising the first.

    A row file (``index`` None) gets a full read's :func:`check_whole_file`.
    A columnar (v4) file, under its validated ``index``, gets the same size
    rule and footer, then every segment that lies inside the image through
    the reader's per-segment pass (:func:`_inflate_segments`); the chunks
    before the first failing or missing one decode into ``rows``.  Raises
    :class:`~repro.errors.DataFileError` only where ``index`` cannot
    describe ``dtype``'s columns.
    """
    view = memoryview(raw)
    nbytes = count * dtype.itemsize if index is None else columnar_payload_length(index)
    payload = view[HEADER_BYTES : HEADER_BYTES + nbytes]
    verdict = ImageVerdict(payload, np.empty(0, dtype), index=index)
    try:
        check_whole_file(
            path, version, count, nbytes, len(raw), view[:HEADER_BYTES], payload,
            view[HEADER_BYTES + nbytes : HEADER_BYTES + nbytes + FOOTER_BYTES],
        )
    except DataChecksumError as exc:
        verdict.footer = str(exc).removeprefix(f"{path}: ")
    except DataFileError as exc:
        verdict.truncated = str(exc).removeprefix(f"{path}: ")
    if index is None:
        whole = len(payload) - len(payload) % dtype.itemsize
        verdict.rows = np.frombuffer(payload[:whole], dtype)
        return verdict
    if not len(index):
        return verdict
    cols = columnar_columns(dtype)
    table = _segment_table(index, cols, path)
    ends = (table[..., 0] + table[..., 1]).max(axis=1)
    inside = int(np.searchsorted(ends, len(payload), side="right"))
    flat = table[:inside].reshape(-1, 3)
    counts = index.counts[:inside]
    codec = get_codec(index.codec)
    inflated, verdict.faults = _inflate_segments(
        payload, flat[:, 0], flat[:, 0] + flat[:, 1], flat[:, 2],
        np.arange(inside), counts, cols, codec, path, strict=False,
    )
    good = min((f.chunk for f in verdict.faults), default=inside)
    verdict.rows = np.empty(int(counts[:good].sum()), dtype)
    _land_chunks(verdict.rows, inflated, counts, np.arange(good), cols, codec)
    return verdict


def rebuild_image(raw: bytes, path: str, trailer: RecoveryTrailer) -> bytes:
    """``raw``'s image around the (verified) particles its fresh
    ``trailer``'s record counts, and that trailer — repair's truncate and
    rewrite-trailer primitive.  A trailer carrying a codec marks a columnar
    (v4) file, whose kept payload is the segments its section describes."""
    count, itemsize = trailer.record.particle_count, parse_data_header(raw, path).rec_size
    nbytes, version = count * itemsize, None
    if trailer.codec is not None:
        section, version = trailer.record.section, DATA_VERSION_COLUMNAR
        nbytes = columnar_payload_length(FileChunkIndex.unpack(section, path)) if section else 0
    payload = bytes(raw[HEADER_BYTES : HEADER_BYTES + nbytes])
    return build_data_blob(payload, itemsize, count, trailer, version=version)


def read_whole_file(
    backend: FileBackend, path: str, dtype: np.dtype, actor: int = -1
) -> ParticleBatch:
    """Every particle of one data file, with no table to size the read: the
    count comes from the file's header and, for a columnar (v4) file, the
    chunk index from its own recovery trailer.  A row file failing the size
    rule is refused before anything is allocated."""
    size = backend.size(path)
    head = backend.read_range(path, 0, min(HEADER_BYTES, size), actor=actor)
    header = parse_data_header(bytes(head), path)
    index = None
    if header.columnar and header.count:
        trailer = read_recovery_trailer(backend, path, actor=actor)
        index = FileChunkIndex.unpack(trailer.record.section, path).validated(
            header.count, path, trailer.codec
        )
    elif not header.columnar:
        _check_size(path, header.version, header.count, header.count * header.rec_size, size)
    out = np.empty(header.count, dtype=dtype)
    read_particle_runs_into(backend, path, dtype, index, ((0, header.count),), out, actor=actor)
    return ParticleBatch(out)


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
