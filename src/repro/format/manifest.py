"""The dataset manifest: everything a reader needs that isn't per-file.

``manifest.json`` records the particle dtype (as a NumPy ``descr``), the LOD
parameters the dataset was written with (base level size ``P``, resolution
scale ``S``, ordering heuristic, shuffle seed), and the writer configuration
(partition factor, process grid, adaptivity) for provenance, plus one small
checksum entry per data file.  The spatial table lives separately in binary
(``spatial.meta``), chunk indexes included, because readers on many ranks
parse it on their hot path.

The file is compact JSON with sorted keys.  Whitespace is not significant:
readers go through ``json.loads``, so the indented manifests earlier
writers produced parse to the same :class:`Manifest`.  The ``chunks`` lists
earlier writers put in entries are dropped: such datasets read row files
whole and land columnar indexes from trailers until ``repro compact``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.errors import FormatError
from repro.io.backend import FileBackend

MANIFEST_PATH = "manifest.json"
MANIFEST_VERSION = 2
#: Version written for chained manifests (``manifest.gen-N.json``); adds the
#: ``generation``/``parent`` fields.  Generation-0 manifests keep writing
#: version 2 so classic datasets stay byte-identical.
MANIFEST_VERSION_GEN = 3

#: Versions this reader understands (1 = pre-checksum legacy).
SUPPORTED_MANIFEST_VERSIONS = (1, 2, 3)


def dtype_to_descr(dtype: np.dtype) -> list:
    """A JSON-stable NumPy descr (shared with the v3 recovery trailer)."""
    descr = dtype.descr
    # JSON has no tuples; normalise to lists for stable round-trips.
    return json.loads(json.dumps(descr))


def descr_to_dtype(descr: Any) -> np.dtype:
    """Inverse of :func:`dtype_to_descr`; raises FormatError on garbage."""
    def detuple(item):
        if isinstance(item, list):
            out = [detuple(x) for x in item]
            if (
                len(out) in (2, 3)
                and isinstance(out[0], str)
                and isinstance(out[1], (str, list))
            ):
                if len(out) == 3:
                    return (out[0], out[1], tuple(out[2]))
                return tuple(out)
            return out
        return item

    try:
        return np.dtype(detuple(descr))
    except Exception as exc:
        raise FormatError(f"manifest has an invalid dtype descr: {descr!r}") from exc


@dataclass
class Manifest:
    """Dataset-level metadata, serialised as ``manifest.json``."""

    dtype: np.dtype
    num_files: int
    total_particles: int
    lod_base: int = 32          # P: particles per reading process in level 0
    lod_scale: int = 2          # S: per-level multiplier
    lod_heuristic: str = "random"
    lod_seed: int | None = 0
    writer: dict[str, Any] = field(default_factory=dict)
    #: per-data-file payload checksums: path -> {"payload_crc32": int,
    #: "prefixes": [[count, crc32], ...], "codec": str} (empty for v1).
    checksums: dict[str, dict] = field(default_factory=dict)
    #: CRC32 of the spatial.meta blob this manifest commits (None for v1).
    spatial_meta_crc32: int | None = None
    #: Position in the generation chain (0 = classic single-manifest layout).
    generation: int = 0
    #: Generation this one was committed on top of (None for generation 0).
    parent: int | None = None

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        if self.lod_base < 1:
            raise FormatError(f"lod_base must be >= 1, got {self.lod_base}")
        if self.lod_scale < 2:
            raise FormatError(f"lod_scale must be >= 2, got {self.lod_scale}")
        if self.num_files < 0 or self.total_particles < 0:
            raise FormatError("num_files and total_particles must be >= 0")
        if self.generation < 0:
            raise FormatError(f"generation must be >= 0, got {self.generation}")
        if self.generation == 0 and self.parent is not None:
            raise FormatError("generation 0 cannot have a parent")
        if self.parent is not None and self.parent >= self.generation:
            raise FormatError(
                f"parent generation {self.parent} must precede {self.generation}"
            )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "format": "spio-particles",
            "version": MANIFEST_VERSION if self.generation == 0 else MANIFEST_VERSION_GEN,
            "dtype_descr": dtype_to_descr(self.dtype),
            "num_files": self.num_files,
            "total_particles": self.total_particles,
            "lod": {
                "base": self.lod_base,
                "scale": self.lod_scale,
                "heuristic": self.lod_heuristic,
                "seed": self.lod_seed,
            },
            "writer": self.writer,
            "checksums": self.checksums,
            "spatial_meta_crc32": self.spatial_meta_crc32,
        }
        if self.generation > 0:
            # Only chained manifests carry the fields, so a generation-0
            # manifest stays byte-identical to what earlier writers produced
            # (repair's bit-identical rebuild guarantee depends on that).
            doc["generation"] = self.generation
            doc["parent"] = self.parent
        # Compact separators keep json on its C encoder (any ``indent``
        # forces the pure-Python one).
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes) -> "Manifest":
        try:
            doc = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != "spio-particles":
            fmt = doc.get("format") if isinstance(doc, dict) else doc
            raise FormatError(f"not a particle dataset manifest: {fmt!r}")
        if doc.get("version") not in SUPPORTED_MANIFEST_VERSIONS:
            raise FormatError(f"unsupported manifest version {doc.get('version')!r}")
        try:
            lod = doc["lod"]
            meta_crc = doc.get("spatial_meta_crc32")
            parent = doc.get("parent")
            return cls(
                dtype=descr_to_dtype(doc["dtype_descr"]),
                num_files=int(doc["num_files"]),
                total_particles=int(doc["total_particles"]),
                lod_base=int(lod["base"]),
                lod_scale=int(lod["scale"]),
                lod_heuristic=str(lod["heuristic"]),
                lod_seed=None if lod["seed"] is None else int(lod["seed"]),
                writer=dict(doc.get("writer", {})),
                checksums={
                    str(path): {k: v for k, v in dict(entry).items() if k != "chunks"}
                    for path, entry in dict(doc.get("checksums", {})).items()
                },
                spatial_meta_crc32=None if meta_crc is None else int(meta_crc),
                generation=int(doc.get("generation", 0)),
                parent=None if parent is None else int(parent),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"manifest missing or malformed field: {exc}") from exc

    def write(self, backend: FileBackend, path: str = MANIFEST_PATH, actor: int = -1) -> None:
        backend.write_file(path, self.to_json().encode("utf-8"), actor=actor)

    @classmethod
    def read(cls, backend: FileBackend, path: str = MANIFEST_PATH, actor: int = -1) -> "Manifest":
        try:
            raw = backend.read_file(path, actor=actor)
        except Exception as exc:
            raise FormatError(f"cannot read manifest {path!r}: {exc}") from exc
        return cls.from_json(bytes(raw))

    def summary(self) -> dict[str, Any]:
        """A printable summary (used by examples)."""
        d = asdict(self)
        d["dtype"] = str(self.dtype)
        return d
