#!/usr/bin/env python3
"""Bit-identity of written datasets between two checkouts of this repository.

    python benchmarks/write_identity.py PARENT_CHECKOUT [CHANGE_CHECKOUT] [--seed N]

Each side writes, with *its own* ``src/repro``, the e2e benchmark's fixtures
from one seed — W as write + append + append (three generations), R and C at
``--smoke`` size — and prints one line per file: SHA-256, byte size, path.
Manifests are hashed after ``json.loads`` → canonical ``json.dumps`` (their
whitespace is not part of the format; the raw size is still printed); every
other file (data files, ``spatial*.meta``, ``CURRENT``) is hashed raw.  With
two checkouts the listings are compared: exit 0 and ``IDENTICAL`` iff every
hash matches.  CHANGE_CHECKOUT defaults to the checkout this file is in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def listing(seed: int) -> list[str]:
    """``sha256 size path`` for every file of W, smoke R and smoke C."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        for name in ("W", "R", "C"):
            root = Path(tmp) / name
            write_fixture(name, seed, root)
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                raw = path.read_bytes()
                body = raw
                if path.suffix == ".json":
                    body = json.dumps(json.loads(raw), sort_keys=True).encode()
                lines.append(
                    f"{hashlib.sha256(body).hexdigest()} {len(raw):>9} "
                    f"{name}/{path.relative_to(root)}"
                )
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
