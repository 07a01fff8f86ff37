"""The manifest generation chain: MVCC over atomic commit markers.

A dataset that has only ever been written once keeps the classic layout —
``manifest.json`` is the commit marker, ``spatial.meta`` the table.  The
first *append* or *compaction* turns the manifest into a generation chain:

* generation ``N`` commits as ``manifest.gen-N.json`` (carrying its
  generation number, parent, and the full file/chunk inventory) plus
  ``spatial.gen-N.meta``;
* new data files are namespaced per generation (``data/gN_file_R.pbin``),
  so no committed byte is ever overwritten in place;
* a tiny checksummed ``CURRENT`` pointer names the committed generation —
  flipping it *is* the commit.

Readers resolve ``CURRENT`` once at open and pin that generation: a writer
appending generation ``N+1`` touches only new paths, so every in-flight
query against generation ``N`` stays bit-identical.  Recovery is equally
simple: a valid ``CURRENT`` wins; a damaged or dangling one falls back to
the newest generation that still fully verifies (manifest parses, table
checksums, every referenced data file present) — the outcome after a crash
is always exactly generation ``N`` or ``N+1``, never a torn mix.

``CURRENT`` byte layout (a single ASCII line, documented in FORMAT.md)::

    spio-current <format-version> <generation> <crc32-of-prefix-hex>\\n
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

from repro.errors import BackendError, FormatError
from repro.format.manifest import MANIFEST_PATH, Manifest
from repro.format.metadata import META_PATH, SpatialMetadata, check_table_crc
from repro.io.backend import FileBackend

__all__ = [
    "CURRENT_PATH",
    "CURRENT_VERSION",
    "ResolvedGeneration",
    "decode_current",
    "encode_current",
    "generation_manifest_path",
    "generation_meta_path",
    "list_generations",
    "load_generation",
    "parse_generation_path",
    "read_current",
    "resolve_generation",
    "verify_generation",
    "write_current",
]

#: The generation pointer file (dataset root).  Written last; flipping it is
#: the commit point of every append/compaction.
CURRENT_PATH = "CURRENT"
CURRENT_MAGIC = "spio-current"
CURRENT_VERSION = 1

_GEN_MANIFEST_RE = re.compile(r"manifest\.gen-([1-9]\d*)\.json")
_GEN_META_RE = re.compile(r"spatial\.gen-([1-9]\d*)\.meta")


def generation_manifest_path(gen: int) -> str:
    """Manifest path for one generation (gen 0 keeps the classic name)."""
    if gen < 0:
        raise FormatError(f"generation must be >= 0, got {gen}")
    return MANIFEST_PATH if gen == 0 else f"manifest.gen-{gen}.json"


def generation_meta_path(gen: int) -> str:
    """Spatial-table path for one generation (gen 0 keeps the classic name)."""
    if gen < 0:
        raise FormatError(f"generation must be >= 0, got {gen}")
    return META_PATH if gen == 0 else f"spatial.gen-{gen}.meta"


def parse_generation_path(name: str) -> tuple[str, int] | None:
    """``("manifest" | "meta", gen)`` for a chained file name, else None."""
    m = _GEN_MANIFEST_RE.fullmatch(name)
    if m:
        return ("manifest", int(m.group(1)))
    m = _GEN_META_RE.fullmatch(name)
    if m:
        return ("meta", int(m.group(1)))
    return None


# -- the CURRENT pointer -------------------------------------------------------


def encode_current(gen: int) -> bytes:
    """Serialise the pointer: one checksummed ASCII line (see module doc)."""
    if gen < 0:
        raise FormatError(f"generation must be >= 0, got {gen}")
    prefix = f"{CURRENT_MAGIC} {CURRENT_VERSION} {int(gen)}"
    return f"{prefix} {zlib.crc32(prefix.encode('ascii')):08x}\n".encode("ascii")


def decode_current(raw: bytes) -> int:
    """Parse and verify a ``CURRENT`` image; raises FormatError on damage.

    The checksum covers the whole prefix, so a torn write, a flipped bit,
    or a wholesale swap for a different pointer all fail loudly — the
    reader then falls back to the newest verifiable generation.
    """
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"CURRENT is not ASCII: {exc}") from exc
    parts = text.strip().split(" ")
    if len(parts) != 4 or parts[0] != CURRENT_MAGIC:
        raise FormatError(f"CURRENT is malformed: {text!r}")
    magic, version, gen, crc = parts
    if version != str(CURRENT_VERSION):
        raise FormatError(f"unsupported CURRENT version {version!r}")
    prefix = f"{magic} {version} {gen}"
    try:
        stored = int(crc, 16)
    except ValueError as exc:
        raise FormatError(f"CURRENT checksum is not hex: {crc!r}") from exc
    actual = zlib.crc32(prefix.encode("ascii"))
    if actual != stored:
        raise FormatError(
            f"CURRENT checksum mismatch — stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    value = int(gen)
    if value < 0:
        raise FormatError(f"CURRENT names a negative generation {value}")
    return value


def read_current(backend: FileBackend, actor: int = -1) -> int | None:
    """The committed generation, ``None`` when no pointer exists (classic
    single-manifest dataset), FormatError when the pointer is damaged."""
    if not backend.exists(CURRENT_PATH):
        return None
    try:
        raw = backend.read_file(CURRENT_PATH, actor=actor)
    except BackendError as exc:
        raise FormatError(f"cannot read CURRENT: {exc}") from exc
    return decode_current(bytes(raw))


def write_current(backend: FileBackend, gen: int, actor: int = -1) -> None:
    backend.write_file(CURRENT_PATH, encode_current(gen), actor=actor)


# -- chain inspection ----------------------------------------------------------


def list_generations(backend: FileBackend) -> list[int]:
    """Every generation with a manifest on disk, ascending (0 = classic)."""
    try:
        names = backend.listdir("")
    except BackendError:
        names = []
    gens: set[int] = set()
    for name in names:
        if name == MANIFEST_PATH:
            gens.add(0)
            continue
        parsed = parse_generation_path(name)
        if parsed is not None and parsed[0] == "manifest":
            gens.add(parsed[1])
    return sorted(gens)


def load_generation(
    backend: FileBackend,
    gen: int,
    actor: int = -1,
    manifest: Manifest | None = None,
) -> tuple[Manifest, SpatialMetadata]:
    """Read one generation's manifest + whole table, every chunk section
    included (format validation included); given the ``manifest`` a
    :class:`ResolvedGeneration` carries, only the table is read."""
    if manifest is None:
        manifest = Manifest.read(backend, generation_manifest_path(gen), actor=actor)
    metadata = SpatialMetadata.read_whole(backend, generation_meta_path(gen), actor=actor)
    return manifest, metadata


def verify_generation(backend: FileBackend, gen: int, actor: int = -1) -> bool:
    """Whether generation ``gen`` fully verifies: manifest parses, the table
    parses with a matching CRC, and every referenced data file exists.

    This is the fallback probe — deliberately structural (no payload reads)
    so recovery after a torn ``CURRENT`` stays cheap; deep verification is
    the scrubber's job.
    """
    meta_path = generation_meta_path(gen)
    try:
        manifest = Manifest.read(backend, generation_manifest_path(gen), actor=actor)
        metadata = SpatialMetadata.read_whole(backend, meta_path, actor=actor)
        check_table_crc(manifest.spatial_meta_crc32, metadata, meta_path)
    except (FormatError, BackendError):
        return False
    if manifest.num_files != len(metadata.records):
        return False
    try:
        return all(backend.exists(rec.file_path) for rec in metadata.records)
    except BackendError:
        return False


# -- resolution ----------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedGeneration:
    """Which generation a reader (or repair pass) operates on, and why."""

    generation: int
    #: True when the caller pinned this generation explicitly.
    pinned: bool = False
    #: True when ``CURRENT`` was damaged/dangling and resolution fell back
    #: to the newest fully-verifiable generation.
    fallback: bool = False
    detail: str = ""
    #: The manifest, when validating ``CURRENT`` had to parse it anyway —
    #: :func:`load_generation` / ``Dataset.load`` reuse it instead of parsing
    #: twice.  None for pins, classic generation-0 datasets and fallbacks.
    manifest: Manifest | None = field(default=None, compare=False, repr=False)

    @property
    def manifest_path(self) -> str:
        return generation_manifest_path(self.generation)

    @property
    def meta_path(self) -> str:
        return generation_meta_path(self.generation)


def _fallback(backend: FileBackend, reason: str, actor: int) -> ResolvedGeneration:
    for gen in reversed(list_generations(backend)):
        if verify_generation(backend, gen, actor=actor):
            return ResolvedGeneration(gen, fallback=True, detail=reason)
    raise FormatError(
        f"cannot resolve dataset generation ({reason}) and no generation "
        "on disk fully verifies — run `repro repair`"
    )


def resolve_generation(
    backend: FileBackend, pin: int | None = None, actor: int = -1
) -> ResolvedGeneration:
    """Decide which generation to read.

    * an explicit ``pin`` always wins (snapshot reads);
    * a valid ``CURRENT`` naming a parseable manifest wins next;
    * otherwise (damaged pointer, pointer gone while chained manifests
      remain, pointer naming a generation whose manifest is unreadable)
      fall back to the newest generation that fully verifies;
    * no pointer and no chain means the classic single-manifest layout.
    """
    if pin is not None:
        if pin < 0:
            raise FormatError(f"generation must be >= 0, got {pin}")
        return ResolvedGeneration(pin, pinned=True)
    try:
        current = read_current(backend, actor=actor)
    except FormatError as exc:
        return _fallback(backend, f"CURRENT is damaged: {exc}", actor)
    if current is None:
        if any(g > 0 for g in list_generations(backend)):
            return _fallback(
                backend, "CURRENT is missing but generation manifests exist", actor
            )
        return ResolvedGeneration(0)
    try:
        manifest = Manifest.read(
            backend, generation_manifest_path(current), actor=actor
        )
    except FormatError as exc:
        return _fallback(
            backend,
            f"CURRENT names generation {current} but its manifest is "
            f"unusable: {exc}",
            actor,
        )
    return ResolvedGeneration(current, manifest=manifest)
