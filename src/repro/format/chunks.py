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

The index is serialised twice, like every other per-file fact: as the
``chunks`` key of the file's manifest checksum entry and inside the v3
recovery trailer.  The JSON form of one chunk is::

    [start, count, [lo_x, lo_y, lo_z], [hi_x, hi_y, hi_z],
     [[min, max], ...indexed attrs, in attr_index order]]

with ``start``/``count`` in particles from the head of the payload.  Chunks
are stored in payload order and must tile the file exactly (``start`` 0,
contiguous, summing to the particle count) — :meth:`FileChunkIndex.from_entry`
validates that before a reader prunes against it.

Query-time pruning is a single numpy broadcast: a chunk can contain a
particle of a *closed* box query (``lo <= p <= hi``, the reader's exact
filter) iff its tight bounds closed-intersect the query box.  Selected
chunks that are adjacent in the payload coalesce into one ranged read
(:meth:`FileChunkIndex.select_runs`), which is what turns a selective query
into a handful of contiguous byte ranges instead of a whole-file read.
"""

from __future__ import annotations

import numpy as np

from repro.domain.box import Box
from repro.errors import DataFileError

__all__ = [
    "build_chunk_entry",
    "chunks_from_entry",
    "chunks_to_entry",
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
) -> list:
    """The manifest/trailer ``chunks`` entry for one LOD-ordered payload.

    ``boundaries`` are the cumulative per-file LOD level counts
    (:func:`repro.format.datafile.prefix_checksum_boundaries`); chunking
    restarts at each so no chunk straddles a level boundary.  Bounds and
    attribute ranges are tight (computed from the actual particles), so
    pruning against them is exact for closed-box queries.

    Computed on whole arrays — chunk starts from the boundaries, bounds and
    attribute ranges with one ``reduceat`` each — and returned as plain
    nested lists of ``int``/``float`` (one ``tolist`` per array), the exact
    value ``json.loads`` gives back.
    """
    if chunk_size < 1:
        raise DataFileError(f"chunk_size must be >= 1, got {chunk_size}")
    if not len(batch) or not len(boundaries):
        return []
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
    return [
        list(chunk)
        for chunk in zip(
            starts.tolist(), counts.tolist(), lo.tolist(), hi.tolist(),
            attrs.tolist(),
        )
    ]


def chunks_from_entry(entry) -> tuple:
    """Parse the JSON ``chunks`` list into the canonical tuple form the
    :class:`~repro.format.datafile.RecoveryTrailer` carries (hashable,
    comparable field-by-field).

    Columnar (format v4) chunks carry a sixth element — the per-column
    segment descriptors ``[[offset, encoded_length, crc32], ...]`` — which
    round-trips as a nested tuple; five-element row-format chunks parse to
    five-element tuples, keeping pre-v4 trailers and manifests
    byte-identical.
    """
    out: list[tuple] = []
    try:
        for item in entry:
            start, count, lo, hi, attrs = item[0], item[1], item[2], item[3], item[4]
            chunk = (
                int(start),
                int(count),
                tuple(float(v) for v in lo),
                tuple(float(v) for v in hi),
                tuple((float(mn), float(mx)) for mn, mx in attrs),
            )
            if len(item) > 5:
                chunk = chunk + (
                    tuple(
                        (int(off), int(ln), int(crc))
                        for off, ln, crc in item[5]
                    ),
                )
            out.append(chunk)
        return tuple(out)
    except (TypeError, ValueError, IndexError) as exc:
        raise DataFileError(f"malformed chunk index entry: {exc}") from exc


def chunks_to_entry(chunks: tuple) -> list:
    """Inverse of :func:`chunks_from_entry`: the JSON list form, bit-exact
    (floats round-trip through JSON unchanged)."""
    out: list = []
    for chunk in chunks:
        start, count, lo, hi, attrs = chunk[0], chunk[1], chunk[2], chunk[3], chunk[4]
        item: list = [
            int(start),
            int(count),
            [float(v) for v in lo],
            [float(v) for v in hi],
            [[float(mn), float(mx)] for mn, mx in attrs],
        ]
        if len(chunk) > 5:
            item.append([[int(off), int(ln), int(crc)] for off, ln, crc in chunk[5]])
        out.append(item)
    return out


class FileChunkIndex:
    """One file's chunk index as structure-of-arrays ndarrays.

    ``starts``/``counts`` are int64 ``(N,)``; ``lo``/``hi`` are float64
    ``(N, 3)`` tight chunk bounds.  Built once per file via
    :meth:`from_entry` (the :class:`~repro.dataset.Dataset` facade memoizes
    the result) so per-query pruning is pure numpy broadcasting.
    """

    __slots__ = (
        "starts", "counts", "lo", "hi", "attr_ranges",
        "segments", "codec", "attr_names", "_segment_table",
    )

    def __init__(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        attr_ranges: np.ndarray | None = None,
        segments: tuple | None = None,
        codec: str | None = None,
        attr_names: tuple[str, ...] = (),
    ):
        self.starts = starts
        self.counts = counts
        self.lo = lo
        self.hi = hi
        #: float64 (N, num_attrs, 2) per-chunk attribute (min, max), or None.
        self.attr_ranges = attr_ranges
        #: Per-chunk ``((offset, encoded_length, crc32), ...)`` column
        #: segment descriptors for columnar (v4) files, or None for row
        #: layouts.
        self.segments = segments
        #: Codec name the segments were encoded with, or None (row layout).
        self.codec = codec
        #: Names behind ``attr_ranges`` columns (the dataset's attr_index
        #: order); empty when the caller did not supply them.
        self.attr_names = tuple(attr_names)
        self._segment_table: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def segment_table(self) -> np.ndarray:
        """``segments`` as one int64 ``(chunks, columns, 3)`` array of
        ``(offset, encoded_length, crc32)``, built on first use: a run
        read takes all its descriptors with one fancy index instead of
        walking the per-chunk tuples."""
        table = self._segment_table
        if table is None:
            if self.segments is None:
                raise DataFileError("chunk index carries no column segments")
            table = np.array(self.segments, dtype=np.int64).reshape(
                len(self.segments), -1, 3
            )
            self._segment_table = table
        return table

    @property
    def total_particles(self) -> int:
        return int(self.counts.sum()) if len(self.counts) else 0

    @classmethod
    def from_entry(
        cls,
        entry,
        particle_count: int,
        path: str = "<chunk index>",
        codec: str | None = None,
        attr_names: tuple[str, ...] = (),
    ) -> "FileChunkIndex":
        """Parse and validate one JSON ``chunks`` entry.

        Raises :class:`~repro.errors.DataFileError` unless the chunks tile
        the payload exactly: first starts at 0, each is non-empty, each
        begins where the previous ended, and together they cover exactly
        ``particle_count`` particles.  A reader must never prune against an
        index that silently skips or double-counts particles.

        ``codec`` marks the file columnar (format v4); every chunk must
        then carry a consistent segment-descriptor list with non-negative,
        non-overlapping extents.
        """
        chunks = chunks_from_entry(entry)
        if not chunks:
            if particle_count:
                raise DataFileError(
                    f"{path}: empty chunk index for {particle_count} particles"
                )
            empty3 = np.empty((0, 3), dtype=np.float64)
            return cls(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                empty3,
                empty3,
                codec=codec,
                attr_names=attr_names,
            )
        starts = np.array([c[0] for c in chunks], dtype=np.int64)
        counts = np.array([c[1] for c in chunks], dtype=np.int64)
        lo = np.array([c[2] for c in chunks], dtype=np.float64)
        hi = np.array([c[3] for c in chunks], dtype=np.float64)
        if lo.shape != (len(chunks), 3) or hi.shape != (len(chunks), 3):
            raise DataFileError(f"{path}: chunk bounds are not 3-D")
        if starts[0] != 0:
            raise DataFileError(
                f"{path}: chunk index starts at particle {starts[0]}, not 0"
            )
        if (counts < 1).any():
            raise DataFileError(f"{path}: chunk index contains an empty chunk")
        ends = starts + counts
        if (starts[1:] != ends[:-1]).any():
            raise DataFileError(
                f"{path}: chunk index is not contiguous over the payload"
            )
        if int(ends[-1]) != int(particle_count):
            raise DataFileError(
                f"{path}: chunk index covers {int(ends[-1])} particles, "
                f"file holds {particle_count}"
            )
        nattrs = len(chunks[0][4])
        attr_ranges = None
        if any(len(c[4]) != nattrs for c in chunks):
            raise DataFileError(
                f"{path}: chunk index attribute ranges are ragged"
            )
        if nattrs:
            attr_ranges = np.array([c[4] for c in chunks], dtype=np.float64)
        segments: tuple | None = None
        has_segs = [len(c) > 5 for c in chunks]
        if any(has_segs):
            if not all(has_segs):
                raise DataFileError(
                    f"{path}: chunk index mixes segment-bearing and bare chunks"
                )
            ncols = len(chunks[0][5])
            prev_end = 0
            for i, c in enumerate(chunks):
                if len(c[5]) != ncols:
                    raise DataFileError(
                        f"{path}: chunk {i} has {len(c[5])} column segments, "
                        f"chunk 0 has {ncols}"
                    )
                for off, ln, _crc in c[5]:
                    if off < 0 or ln < 0 or off < prev_end:
                        raise DataFileError(
                            f"{path}: chunk {i} segment [{off}, {off + ln}) "
                            "overlaps or regresses in the payload"
                        )
                    prev_end = off + ln
            segments = tuple(c[5] for c in chunks)
        if codec is not None and segments is None and len(chunks):
            raise DataFileError(
                f"{path}: codec {codec!r} recorded but chunks carry no "
                "column segments"
            )
        return cls(
            starts, counts, lo, hi, attr_ranges,
            segments=segments, codec=codec, attr_names=attr_names,
        )

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
        # Per axis on the strided bound columns: a reduction over the short
        # axis of an (N, 3) temporary costs several times the comparisons.
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
