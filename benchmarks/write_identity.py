#!/usr/bin/env python3
"""Bit-identity of written datasets between two checkouts of this repository.

    python benchmarks/write_identity.py PARENT_CHECKOUT [CHANGE_CHECKOUT] [--seed N]

Each side writes, with *its own* ``src/repro``, the e2e benchmark's fixtures
from one seed — W as write + append + append (three generations), W again
followed by ``compact_dataset`` (``Wc``), R and C at ``--smoke`` size — and
prints one line per file: SHA-256, byte size, path.  Manifests, spatial
tables and ``CURRENT`` are hashed raw.  A data file is hashed as header +
payload + footer, and its recovery trailer gets its own line
(``<data file>#trailer``), hashed as the facts it decodes to — record
fields, chunk section, payload and prefix CRCs, codec, dtype descr, LOD
parameters — so the listing holds across a change of the trailer's
encoding.

With two checkouts the listings are compared: exit 0 and ``IDENTICAL`` iff
every hash matches.  CHANGE_CHECKOUT defaults to the checkout this file is
in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import subprocess
import sys
import tempfile
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


def data_file_lines(rel: str, raw: bytes) -> list[str]:
    """Header + payload + footer hashed raw, and the recovery trailer hashed
    as its decoded facts (``RecoveryTrailer.record`` on one side of the
    binary-trailer change, the same fields on the trailer itself on the
    other)."""
    from repro.format.datafile import extract_recovery_trailer

    if struct.unpack_from("<I", raw, 8)[0] < 3:
        return [f"{_sha(raw)} {len(raw):>9} {rel}"]
    body_len = struct.unpack("<4sII", raw[-12:])[1]
    image = raw[: len(raw) - 12 - body_len]
    t = extract_recovery_trailer(raw, rel)
    rec = getattr(t, "record", t)
    attrs = rec.attr_ranges
    if not isinstance(attrs, dict):
        attrs = {n: (lo, hi) for n, lo, hi in attrs}
    facts = [
        rec.box_id, rec.agg_rank, rec.gen, rec.particle_count,
        list(rec.bounds.lo), list(rec.bounds.hi), list(attrs.items()),
        hashlib.sha256(rec.section).hexdigest(),
        t.payload_crc32, [list(p) for p in t.prefixes], t.codec, t.dtype_descr,
        [t.lod_base, t.lod_scale, t.lod_heuristic, t.lod_seed],
    ]
    return [
        f"{_sha(image)} {len(image):>9} {rel}",
        f"{_sha(_canonical(facts))} {len(raw) - len(image):>9} {rel}#trailer",
    ]


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
                raw, rel = path.read_bytes(), f"{name}/{path.relative_to(root)}"
                if path.suffix == ".pbin":
                    lines += data_file_lines(rel, raw)
                else:
                    lines.append(f"{_sha(raw)} {len(raw):>9} {rel}")
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
