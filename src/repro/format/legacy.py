"""Decoders for the text forms of per-file facts that earlier writers used.

Before the recovery trailer became binary, a data file ended in a JSON
trailer body under the tail magic ``RCVT``::

    {"agg_rank": int, "attr_ranges": [[name, min, max], ...],
     "bounds": {"lo": [x, y, z], "hi": [x, y, z]}, "box_id": int,
     "chunks": [chunk, ...],          # omitted when the file had no index
     "codec": str,                    # columnar (v4) files only
     "dtype_descr": [...], "gen": int,  # gen omitted when 0
     "lod": {"base": int, "scale": int, "heuristic": str, "seed": int|null},
     "particle_count": int, "payload_crc32": int,
     "prefixes": [[count, crc32], ...]}

with one chunk as ``[start, count, [lo x3], [hi x3], [[min, max], ...]]``
plus, for columnar files, ``[[offset, length, crc32], ...]`` per column
segment.  Manifests before table v5 carried the same chunk lists in their
checksum entries.

This module is the only reader of those forms.  It decodes them into the
objects current files decode to — a :class:`~repro.format.chunks.
FileChunkIndex`, a :class:`~repro.format.datafile.RecoveryTrailer` whose
record carries the packed section — so nothing downstream knows which
encoding a file used.  Every malformed value raises
:class:`~repro.errors.DataFileError`.
"""

from __future__ import annotations

import json

import numpy as np

from repro.domain.box import Box
from repro.errors import DataFileError
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import RecoveryTrailer
from repro.format.metadata import MetadataRecord

__all__ = ["decode_legacy_trailer", "index_from_chunk_list"]


def index_from_chunk_list(entry, path: str = "<chunk index>") -> FileChunkIndex:
    """A text ``chunks`` list as arrays, transposed with one ``zip`` —
    shapes checked, contents *not* validated (see
    :meth:`FileChunkIndex.validated`)."""
    try:
        widths = set(map(len, entry))
    except TypeError as exc:
        raise DataFileError(f"malformed chunk index entry: {exc}") from exc
    if len(widths) > 1:
        raise DataFileError(
            f"{path}: chunk index mixes segment-bearing and bare chunks"
        )
    if not widths:
        return FileChunkIndex.empty()

    def column(values, dtype) -> np.ndarray:
        arr = np.array(values)
        if arr.size and arr.dtype.kind not in "iuf":
            raise TypeError(f"non-numeric {arr.dtype} values")
        with np.errstate(invalid="ignore"):
            out = arr.astype(dtype)
        if out.dtype.kind == "i" and not np.array_equal(out, arr):
            raise ValueError("integer field holds a value int64 cannot")
        return out

    try:
        starts, counts, lo, hi, attrs, *segs = zip(*entry)
        index = FileChunkIndex(
            column(starts, np.int64), column(counts, np.int64),
            column(lo, np.float64), column(hi, np.float64),
        )
        attr_ranges = column(attrs, np.float64)
        segments = column(segs[0] if segs else (), np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFileError(f"malformed chunk index entry: {exc}") from exc
    for arr, width in ((attr_ranges, 2), (segments, 3)):
        if arr.size and (arr.ndim != 3 or arr.shape[::2] != (len(index), width)):
            raise DataFileError(f"{path}: chunk index per-chunk lists are ragged")
    index.attr_ranges = attr_ranges if attr_ranges.size else None
    index.segments = segments if segments.size else None
    return index


def decode_legacy_trailer(body: bytes, path: str) -> RecoveryTrailer:
    """The JSON trailer body of a file written before the binary trailer,
    as the :class:`RecoveryTrailer` the binary body decodes to.

    A decoded trailer must re-encode in the binary form (so a repair that
    rewrites it can), which bounds every integer to its binary width."""
    try:
        doc = json.loads(body.decode("utf-8"))
        lod, bounds = doc["lod"], doc["bounds"]
        lo, hi = [float(v) for v in bounds["lo"]], [float(v) for v in bounds["hi"]]
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError(f"bounds {lo} / {hi} are not 3 floats each")
        chunks = doc.get("chunks", [])
        record = MetadataRecord(
            box_id=int(doc["box_id"]),
            agg_rank=int(doc["agg_rank"]),
            particle_count=int(doc["particle_count"]),
            bounds=Box(lo, hi),
            attr_ranges={
                str(n): (float(amin), float(amax)) for n, amin, amax in doc["attr_ranges"]
            },
            gen=int(doc.get("gen", 0)),
            section=index_from_chunk_list(chunks, path).to_section() if chunks else b"",
        )
        seed, codec = lod["seed"], doc.get("codec")
        trailer = RecoveryTrailer(
            record=record,
            payload_crc32=int(doc["payload_crc32"]),
            prefixes=tuple((int(c), int(crc)) for c, crc in doc["prefixes"]),
            codec=None if codec is None else str(codec),
            dtype_descr=doc["dtype_descr"],
            lod_base=int(lod["base"]),
            lod_scale=int(lod["scale"]),
            lod_heuristic=str(lod["heuristic"]),
            lod_seed=None if seed is None else int(seed),
        )
        trailer.to_bytes()
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise DataFileError(f"{path}: malformed recovery trailer body: {exc}") from exc
    return trailer
