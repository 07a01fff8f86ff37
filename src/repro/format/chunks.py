"""The sub-file spatial chunk index (read-path performance layer).

File-level pruning (the paper's §4 fast path) stops paying off once a query
box clips only a corner of a partition: the whole file (or whole LOD
prefix) is still read.  The chunk index pushes the same min/max pruning one
level down.  At write time each data file's LOD-ordered payload is split
into fixed-size *chunks* — runs of ``chunk_size`` consecutive particles —
and each chunk records its particle range, the tight bounding box of the
particles inside it, and per-indexed-attribute (min, max) pairs.  Chunks
never straddle a per-file LOD level boundary (the boundaries of
:func:`repro.format.datafile.prefix_checksum_boundaries`), so any prefix of
the chunk list is still a valid description of an LOD prefix.

The index has one serialised form, a packed little-endian section
(:meth:`FileChunkIndex.to_section`), stored twice like every other per-file
fact: in the file's record of the binary spatial table (the dataset-level
copy, committed by the manifest's ``spatial_meta_crc32``) and, byte for
byte the same, in the record the file's recovery trailer carries.  Each
chunk holds ``start``/``count`` in particles from the head of the payload,
its tight bounds, its (min, max) per indexed attribute, and for columnar
files one ``(offset, length, crc32)`` descriptor per column segment.
Chunks are stored in payload order and must tile the file exactly
(``start`` 0, contiguous, summing to the particle count) — checked by
:meth:`FileChunkIndex.validated` before a reader prunes against it.  Scrub
and repair compare the two copies as bytes.  The text chunk lists files
carried before the packed section are read by :mod:`repro.format.legacy`.

Query-time pruning is a single numpy broadcast: a chunk can contain a
particle of a *closed* box query (``lo <= p <= hi``, the reader's exact
filter) iff its tight bounds closed-intersect the query box.  Selected
chunks that are adjacent in the payload coalesce into one ranged read
(:meth:`FileChunkIndex.select_runs`), which is what turns a selective query
into a handful of contiguous byte ranges instead of a whole-file read.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.domain.box import Box
from repro.errors import DataFileError

__all__ = [
    "build_chunk_entry",
    "concat_ranges",
    "FileChunkIndex",
    "Runs",
]


def concat_ranges(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + n) for f, n in zip(firsts, lengths)])``
    without the loop: every element is its range's first value plus its
    position within that range."""
    before = np.cumsum(lengths) - lengths
    return np.repeat(firsts - before, lengths) + np.arange(int(lengths.sum()))


class Runs:
    """``(start, count)`` particle runs of one file, as arrays.

    The read path computes on whole run lists — byte offsets, destination
    offsets, chunk ids, bounds checks — so runs travel as two parallel
    int64 arrays plus their particle ``total``, summed once here and
    reused by everything that sizes a read (planning, the result
    allocation, staging).  Iterating yields ``(start, count)`` int pairs
    and equality is by value against any such sequence, so run lists
    still read as the tuples they replace.
    """

    __slots__ = ("starts", "counts", "total")

    def __init__(self, starts: np.ndarray, counts: np.ndarray):
        self.starts = starts
        self.counts = counts
        self.total = int(counts.sum())

    @classmethod
    def of(cls, runs) -> "Runs":
        """Coerce any iterable of ``(start, count)`` pairs; empty runs
        (``count == 0``) name no particles and are dropped."""
        if isinstance(runs, cls):
            return runs
        pairs = np.array(list(runs), dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 1] != 0]
        return cls(
            np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])
        )

    @property
    def offsets(self) -> np.ndarray:
        """Where each run begins once the runs are packed back to back —
        a read's destination, a staged buffer."""
        return np.cumsum(self.counts) - self.counts

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return iter(zip(self.starts.tolist(), self.counts.tolist()))

    def __eq__(self, other: object) -> bool:
        try:
            return tuple(self) == tuple(tuple(r) for r in other)  # type: ignore[union-attr]
        except TypeError:
            return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Runs({list(self)})"


_NO_RUNS = Runs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def build_chunk_entry(
    batch,
    chunk_size: int,
    boundaries: list[int],
    attr_names: tuple[str, ...] = (),
) -> "FileChunkIndex":
    """The chunk index of one LOD-ordered payload, as arrays.

    ``boundaries`` are the cumulative per-file LOD level counts
    (:func:`repro.format.datafile.prefix_checksum_boundaries`); chunking
    restarts at each so no chunk straddles a level boundary.  Bounds and
    attribute ranges are tight (computed from the actual particles), so
    pruning against them is exact for closed-box queries.

    Computed on whole arrays — chunk starts from the boundaries, bounds and
    attribute ranges with one ``reduceat`` each.  The result is unvalidated
    (it tiles by construction); :meth:`FileChunkIndex.to_section` packs it
    once, for the table record and the trailer alike.
    """
    if chunk_size < 1:
        raise DataFileError(f"chunk_size must be >= 1, got {chunk_size}")
    if not len(batch) or not len(boundaries):
        return FileChunkIndex.empty(attr_names=attr_names)
    seg_ends = np.asarray(boundaries, dtype=np.int64)
    seg_starts = np.concatenate(([0], seg_ends[:-1]))
    per_seg = -(-(seg_ends - seg_starts) // chunk_size)
    # Chunk k of a segment starts k * chunk_size past the segment's start;
    # only a segment's last chunk can be short.
    starts = np.repeat(seg_starts, per_seg) + chunk_size * concat_ranges(
        np.zeros_like(per_seg), per_seg
    )
    counts = np.minimum(starts + chunk_size, np.repeat(seg_ends, per_seg)) - starts
    total = int(seg_ends[-1])

    def bounds(values) -> tuple[np.ndarray, np.ndarray]:
        # ``(chunks, width)`` min and max: chunks tile [0, total), so each
        # reduceat interval [starts[i], starts[i+1]) is exactly chunk i.
        flat = np.asarray(values, dtype=np.float64)[:total].reshape(total, -1)
        return (
            np.minimum.reduceat(flat, starts, axis=0),
            np.maximum.reduceat(flat, starts, axis=0),
        )

    lo, hi = bounds(batch.positions)
    attrs = np.empty((len(starts), len(attr_names), 2), dtype=np.float64)
    for k, name in enumerate(attr_names):
        mins, maxs = bounds(batch.data[name])
        attrs[:, k, 0] = mins.min(axis=1)
        attrs[:, k, 1] = maxs.max(axis=1)
    return FileChunkIndex(
        starts, counts, lo, hi, attrs if len(attr_names) else None,
        attr_names=attr_names,
    )


#: A packed section: ``u64 chunks | u32 attrs | u32 columns``, then one array
#: per field: starts, counts, lo, hi, attr (min, max) pairs, segment triples.
_SECTION_HEADER = struct.Struct("<QII")
_SECTION_DTYPES = ("<i8", "<i8", "<f8", "<f8", "<f8", "<i8")


class FileChunkIndex:
    """One file's chunk index as structure-of-arrays ndarrays.

    ``starts``/``counts`` are int64 ``(N,)``; ``lo``/``hi`` are float64
    ``(N, 3)`` tight chunk bounds; ``attr_ranges`` float64 ``(N, attrs,
    2)`` or None; ``segments`` int64 ``(N, columns, 3)`` or None.  Landed
    once per file from a packed section (:meth:`unpack`), checked by one
    validator (:meth:`validated`), and memoized on the
    :class:`~repro.dataset.Dataset` facade, so per-query pruning is pure
    numpy broadcasting.
    """

    __slots__ = (
        "starts", "counts", "lo", "hi", "attr_ranges",
        "segments", "codec", "attr_names", "_total",
    )

    def __init__(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        attr_ranges: np.ndarray | None = None,
        segments: np.ndarray | None = None,
        codec: str | None = None,
        attr_names: tuple[str, ...] = (),
    ):
        self.starts = starts
        self.counts = counts
        self.lo = lo
        self.hi = hi
        #: float64 (N, num_attrs, 2) per-chunk attribute (min, max), or None.
        self.attr_ranges = attr_ranges
        #: int64 (N, columns, 3) ``(offset, encoded_length, crc32)`` column
        #: segment descriptors for columnar (v4) files, or None for row
        #: layouts.
        self.segments = segments
        #: Codec name the segments were encoded with, or None (row layout).
        self.codec = codec
        #: Names behind ``attr_ranges`` columns (the dataset's attr_index
        #: order); empty when the caller did not supply them.
        self.attr_names = tuple(attr_names)
        self._total: int | None = None

    @classmethod
    def empty(cls, codec: str | None = None, attr_names=()) -> "FileChunkIndex":
        none, empty3 = np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.float64)
        return cls(none, none, empty3, empty3, codec=codec, attr_names=attr_names)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, sel: slice) -> "FileChunkIndex":
        """The chunks ``sel`` selects, as an index of their own."""
        attrs, segs = self.attr_ranges, self.segments
        return FileChunkIndex(
            self.starts[sel], self.counts[sel], self.lo[sel], self.hi[sel],
            None if attrs is None else attrs[sel],
            None if segs is None else segs[sel],
            self.codec, self.attr_names,
        )

    @property
    def segment_table(self) -> np.ndarray:
        """``segments``, or an error for a row-layout index: a run read
        takes all its descriptors with one fancy index."""
        if self.segments is None:
            raise DataFileError("chunk index carries no column segments")
        return self.segments

    @property
    def total_particles(self) -> int:
        """The particles the chunks cover, counted once per index (by
        :meth:`validated`, which counts them anyway, or on first use)."""
        if self._total is None:
            self._total = int(self.counts.sum()) if len(self.counts) else 0
        return self._total

    # -- the packed section ---------------------------------------------------

    def _widths(self) -> tuple[np.ndarray, np.ndarray]:
        """``attr_ranges``/``segments`` with absent ones as 0-wide arrays."""
        n, attrs, segs = len(self), self.attr_ranges, self.segments
        return (
            np.empty((n, 0, 2)) if attrs is None else attrs,
            np.empty((n, 0, 3), dtype=np.int64) if segs is None else segs,
        )

    def to_section(self) -> bytes:
        """The packed little-endian section the spatial table stores: the
        header, then each field as one contiguous array in chunk order."""
        attrs, segs = self._widths()
        arrays = (self.starts, self.counts, self.lo, self.hi, attrs, segs)
        return _SECTION_HEADER.pack(len(self), attrs.shape[1], segs.shape[1]) + b"".join(
            np.ascontiguousarray(a, dtype=dt).tobytes()
            for a, dt in zip(arrays, _SECTION_DTYPES)
        )

    @classmethod
    def unpack(cls, section, path: str = "<chunk index>") -> "FileChunkIndex":
        """Land a packed section (:meth:`to_section`) into owned, aligned
        arrays — the binary constructor.  Framing is checked here; readers
        then call :meth:`validated`, while scrub and repair compare what
        was recorded as is."""
        if len(section) < _SECTION_HEADER.size:
            raise DataFileError(
                f"{path}: chunk section truncated at {len(section)} bytes"
            )
        n, nattrs, ncols = _SECTION_HEADER.unpack_from(section)
        size = _SECTION_HEADER.size + 8 * n * (8 + 2 * nattrs + 3 * ncols)
        if len(section) != size:
            raise DataFileError(
                f"{path}: chunk section holds {len(section)} bytes, its header "
                f"({n} chunks, {nattrs} attrs, {ncols} columns) needs {size}"
            )
        # The section may sit at any offset of the table: copy each array
        # out (owned, aligned) so the query path never runs unaligned.  The
        # bounds land column-major, so :meth:`select_runs` compares
        # contiguous per-axis columns rather than strided ones.
        words = np.frombuffer(section, "<u8", offset=_SECTION_HEADER.size)
        arrays, pos = [], 0
        shapes = ((n,), (n,), (n, 3), (n, 3), (n, nattrs, 2), (n, ncols, 3))
        orders = ("C", "C", "F", "F", "C", "C")
        for dtype, shape, order in zip(_SECTION_DTYPES, shapes, orders):
            size = math.prod(shape)
            arrays.append(
                words[pos : pos + size].view(dtype).reshape(shape).copy(order=order)
            )
            pos += size
        starts, counts, lo, hi, attrs, segs = arrays
        return cls(
            starts, counts, lo, hi, attrs if nattrs else None,
            segs if ncols else None,
        )

    @classmethod
    def from_entry(
        cls,
        entry,
        particle_count: int,
        path: str = "<chunk index>",
        codec: str | None = None,
        attr_names: tuple[str, ...] = (),
    ) -> "FileChunkIndex":
        """Parse and validate one ``chunks`` list of the text form files
        and manifests carried before table sections (see
        :mod:`repro.format.legacy`)."""
        from repro.format.legacy import index_from_chunk_list

        return index_from_chunk_list(entry, path).validated(
            particle_count, path, codec, attr_names
        )

    def validated(
        self,
        particle_count: int,
        path: str = "<chunk index>",
        codec: str | None = None,
        attr_names: tuple[str, ...] = (),
    ) -> "FileChunkIndex":
        """This index, checked, tagged with ``codec``/``attr_names``.

        Raises :class:`~repro.errors.DataFileError` unless the chunks tile
        the payload exactly: first starts at 0, each is non-empty, each
        begins where the previous ended, and together they cover exactly
        ``particle_count`` particles.  A reader must never prune against an
        index that silently skips or double-counts particles.

        ``codec`` marks the file columnar (format v4); every chunk must
        then carry non-negative, non-overlapping, ascending segment extents.
        Whole-array checks, shared by both serialised forms.
        """
        n, starts, counts = len(self), self.starts, self.counts
        if self.lo.shape != (n, 3) or self.hi.shape != (n, 3):
            raise DataFileError(f"{path}: chunk bounds are not 3-D")
        if starts.shape != (n,) or counts.shape != (n,):
            raise DataFileError(f"{path}: chunk starts/counts are not 1-D")
        if n and starts[0] != 0:
            raise DataFileError(
                f"{path}: chunk index starts at particle {starts[0]}, not 0"
            )
        if (counts < 1).any():
            raise DataFileError(f"{path}: chunk index contains an empty chunk")
        ends = starts + counts
        # ``ends <= starts`` only where int64 wrapped around.
        if (starts[1:] != ends[:-1]).any() or (ends <= starts).any():
            raise DataFileError(
                f"{path}: chunk index is not contiguous over the payload"
            )
        covered = int(ends[-1]) if n else 0
        if covered != int(particle_count):
            raise DataFileError(
                f"{path}: chunk index covers {covered} particles, "
                f"file holds {particle_count}"
            )
        if self.attr_ranges is not None and attr_names and (
            self.attr_ranges.shape[1] != len(attr_names)
        ):
            raise DataFileError(
                f"{path}: chunk index carries {self.attr_ranges.shape[1]} "
                f"attribute ranges for {len(attr_names)} indexed attributes"
            )
        if self.segments is not None:
            off, ln = self.segments[..., 0].ravel(), self.segments[..., 1].ravel()
            end = off + ln  # ``end < off`` only where int64 wrapped around
            bad = np.flatnonzero((off < np.append(0, end[:-1])) | (ln < 0) | (end < off))
            if len(bad):
                k = int(bad[0])
                raise DataFileError(
                    f"{path}: chunk {k // self.segments.shape[1]} segment "
                    f"[{int(off[k])}, {int(off[k]) + int(ln[k])}) "
                    "overlaps or regresses in the payload"
                )
        elif codec is not None:
            raise DataFileError(
                f"{path}: codec {codec!r} recorded but chunks carry no "
                "column segments"
            )
        self.codec = codec
        self.attr_names = tuple(attr_names)
        self._total = covered
        return self

    def select_runs(
        self,
        box: Box,
        where: dict[str, tuple[float, float]] | None = None,
    ) -> Runs:
        """Coalesced ``(start, count)`` particle runs a closed-box query needs.

        Chunk bounds are tight, so a chunk holds a candidate particle iff
        its bounds and the query box intersect as *closed* intervals (the
        reader's exact filter is ``lo <= p <= hi``).  ``where`` maps indexed
        attribute names to ``(lo, hi)`` value ranges — predicate pushdown:
        a chunk whose recorded ``[min, max]`` for that attribute misses the
        range (closed-interval test, matching the reader's post-filter)
        is pruned before any I/O, composing with the spatial test.  Adjacent
        selected chunks merge into one run — one ranged read each.
        """
        if not len(self.starts):
            return _NO_RUNS
        qlo, qhi = box.lo, box.hi
        # Per axis on the bound columns (contiguous in an unpacked index): a
        # reduction over the short axis of an (N, 3) temporary costs
        # several times the comparisons.
        mask = self.lo[:, 0] <= qhi[0]
        for axis in (1, 2):
            mask &= self.lo[:, axis] <= qhi[axis]
        for axis in (0, 1, 2):
            mask &= qlo[axis] <= self.hi[:, axis]
        if where and self.attr_ranges is not None:
            for name, (alo, ahi) in where.items():
                if name not in self.attr_names:
                    continue  # not indexed at chunk level: no pruning
                k = self.attr_names.index(name)
                mask &= self.attr_ranges[:, k, 0] <= float(ahi)
                mask &= float(alo) <= self.attr_ranges[:, k, 1]
        sel = np.flatnonzero(mask)
        if not len(sel):
            return _NO_RUNS
        # A run ends wherever the next selected chunk is not its neighbour.
        gap = np.flatnonzero(sel[1:] - sel[:-1] > 1)
        first = sel[np.concatenate(([0], gap + 1))]
        last = sel[np.concatenate((gap, [len(sel) - 1]))]
        starts = self.starts[first]
        return Runs(starts, self.starts[last] + self.counts[last] - starts)

    def __repr__(self) -> str:
        return (
            f"FileChunkIndex(chunks={len(self)}, "
            f"particles={self.total_particles})"
        )
