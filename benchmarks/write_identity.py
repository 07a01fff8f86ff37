#!/usr/bin/env python3
"""Bit-identity of written datasets between two checkouts of this repository.

    python benchmarks/write_identity.py PARENT_CHECKOUT [CHANGE_CHECKOUT] [--seed N]

Each side writes, with *its own* ``src/repro``, the e2e benchmark's fixtures
from one seed — W as write + append + append (three generations), W again
followed by ``compact_dataset`` (``Wc``), R and C at ``--smoke`` size — and
prints one line per file: SHA-256, byte size, path.  Data files and
``CURRENT`` are hashed raw.  What is compared for the metadata is its
content, so the listing holds across the format change that moved the chunk
index from the manifest into the spatial table:

* a manifest is hashed after ``json.loads``, with any ``chunks`` key of its
  checksum entries dropped and ``spatial_meta_crc32`` replaced by whether
  it is the CRC32 of that side's own table (the table's bytes differ
  between formats, its content is compared below), → canonical
  ``json.dumps`` (whitespace is not part of the format; the raw size is
  still printed);
* a spatial table is hashed as its records' fields (box id, rank,
  generation, count, bounds, attribute ranges), not its bytes;
* each data file's chunk index gets its own line (``<table>#<data file>``),
  hashed as its JSON list form — read from the table's section when the
  record carries one, else from the committing manifest's ``chunks`` list.

With two checkouts the listings are compared: exit 0 and ``IDENTICAL`` iff
every hash matches.  CHANGE_CHECKOUT defaults to the checkout this file is
in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent


def write_fixture(name: str, seed: int, root: Path) -> None:
    """One ``write`` of the fixture's first generation, one ``append`` per
    further one, with the ``repro`` on ``sys.path``."""
    from e2e.fixtures import FIXTURES, generate, write_dataset
    from repro.core import SpatialWriter
    from repro.io.posix import PosixBackend
    from repro.mpi import run_mpi

    fx = FIXTURES[name]
    gens = generate(fx, seed, smoke=name != "W")
    write_dataset(fx, gens[0], str(root))
    writer, decomp = SpatialWriter(fx.writer_config()), fx.decomposition()
    backend = PosixBackend(str(root))

    def append(comm, batches):
        return writer.append(comm, batches[comm.rank], decomp, backend)

    for batches in gens[1:]:
        run_mpi(fx.ranks, append, batches)
    backend.close()


def _sha(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def table_lines(name: str, root: Path, path: Path, raw: bytes) -> list[str]:
    """The record line and one chunk-index line per data file of a table."""
    from repro.format.metadata import SpatialMetadata

    manifest_name = path.name.replace("spatial", "manifest").replace(".meta", ".json")
    manifest = json.loads((root / manifest_name).read_bytes())
    meta = SpatialMetadata.from_bytes(raw)
    records = [
        [r.box_id, r.agg_rank, r.gen, r.particle_count, list(r.bounds.lo),
         list(r.bounds.hi), sorted(r.attr_ranges.items())]
        for r in meta.records
    ]
    rel = f"{name}/{path.relative_to(root)}"
    lines = [f"{_sha(_canonical([meta.attr_names, records]))} {len(raw):>9} {rel}"]
    for rec in meta.records:
        if getattr(rec, "section", b""):
            from repro.format.chunks import FileChunkIndex

            chunks = FileChunkIndex.unpack(rec.section).to_entry()
        else:
            chunks = manifest["checksums"].get(rec.file_path, {}).get("chunks", [])
        lines.append(f"{_sha(_canonical(chunks))} {len(chunks):>9} {rel}#{rec.file_path}")
    return lines


def listing(seed: int) -> list[str]:
    """``sha256 size path`` for every file of W, compacted W, smoke R and C."""
    from repro.core.compact import compact_dataset
    from repro.io.posix import PosixBackend

    lines = []
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        for name in ("W", "Wc", "R", "C"):
            root = Path(tmp) / name
            write_fixture(name.rstrip("c"), seed, root)
            if name == "Wc":
                backend = PosixBackend(str(root))
                compact_dataset(backend)
                backend.close()
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                raw = path.read_bytes()
                body = raw
                if path.suffix == ".json":
                    doc = json.loads(raw)
                    for entry in doc.get("checksums", {}).values():
                        entry.pop("chunks", None)
                    table = path.name.replace("manifest", "spatial").replace(".json", ".meta")
                    doc["spatial_meta_crc32"] = doc.get("spatial_meta_crc32") == zlib.crc32(
                        (root / table).read_bytes()
                    )
                    body = _canonical(doc)
                elif path.suffix == ".meta":
                    lines += table_lines(name, root, path, raw)
                    continue
                lines.append(f"{_sha(body)} {len(raw):>9} {name}/{path.relative_to(root)}")
    return lines


def run_side(checkout: Path, seed: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, __file__, "--emit", str(checkout), "--seed", str(seed)],
        check=True, capture_output=True, text=True,
    )
    return out.stdout.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit is not None:
        # Fixture definitions come from this file's checkout on both sides
        # (benchmarks/e2e is identical across them); the library does not.
        sys.path[0:1] = [str(HERE), str(args.emit / "src")]
        print("\n".join(listing(args.seed)))
        return 0
    if not 1 <= len(args.checkouts) <= 2:
        ap.error("give the parent checkout, and optionally the change's")
    parent, change = args.checkouts[0], (args.checkouts[1:] or [HERE.parent])[0]
    a, b = run_side(parent, args.seed), run_side(change, args.seed)
    differ = 0
    for la, lb in zip(a, b):
        (ha, sa, pa), (hb, sb, pb) = la.split(), lb.split()
        same = ha == hb and pa == pb
        differ += not same
        size = sa if sa == sb else f"{sa}->{sb}"
        print(f"{'same' if same else 'DIFF'} {ha[:16]} {size:>18} {pa}")
    differ += abs(len(a) - len(b))
    print("IDENTICAL" if not differ else f"{differ} file(s) differ", f"({len(a)} files)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
