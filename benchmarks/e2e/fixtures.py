"""The benchmark's three fixtures: datasets R and C on disk, write source W in memory.

Every particle is generated in-process from ``--seed`` with
``UintahWorkload(distribution="uniform")`` and stays in the driver as the
oracle (see :mod:`e2e.oracle`).  R and C are written with
:class:`~repro.core.SpatialWriter` under ``run_mpi`` exactly as a user would;
W is never written here — the ``write_append`` worker regenerates it from the
same seeds and writes it itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core import SpatialWriter, WriterConfig
from repro.domain.box import Box
from repro.domain.decomposition import PatchDecomposition
from repro.io.posix import PosixBackend
from repro.mpi import run_mpi
from repro.particles.batch import ParticleBatch
from repro.workloads import UintahWorkload

#: ``--smoke`` divides every fixture's particle count by this.
SMOKE_SHRINK = 8


@dataclass(frozen=True)
class Fixture:
    name: str
    ranks: int
    particles_per_rank: int
    #: ``WriterConfig`` arguments; ``chunk_size`` stays at the default 64
    #: users get, which is what makes the manifest O(chunks).
    config: dict = field(default_factory=dict)
    #: independent generations, seeded ``seed, seed+1, ...``.
    generations: int = 1
    #: written to disk at set-up (W stays in memory: its worker writes it).
    on_disk: bool = True

    def per_rank(self, smoke: bool) -> int:
        return self.particles_per_rank // (SMOKE_SHRINK if smoke else 1)

    def particles(self, smoke: bool) -> int:
        """Particles of one generation."""
        return self.ranks * self.per_rank(smoke)

    def writer_config(self) -> WriterConfig:
        return WriterConfig(**self.config)

    def decomposition(self) -> PatchDecomposition:
        return PatchDecomposition.for_nprocs(Box([0, 0, 0], [1, 1, 1]), self.ranks)


FIXTURES = {
    # ROADMAP's reference dataset: 976 000 particles, 121 MB payload,
    # 8 files, 4.6 MB manifest.json.
    "R": Fixture("R", 32, 30_500, {"partition_factor": (2, 2, 1)}),
    # A CLI `repro write` records no attr index, hence WriterConfig.
    "C": Fixture(
        "C",
        16,
        16_384,
        {
            "partition_factor": (2, 2, 1),
            "layout": "columnar",
            "codec": "shuffle-zlib",
            "attr_index": ("density",),
        },
    ),
    "W": Fixture(
        "W", 8, 2_048, {"partition_factor": (2, 2, 1)}, generations=3, on_disk=False
    ),
}


def generate(fx: Fixture, seed: int, smoke: bool) -> list[list[ParticleBatch]]:
    """``[generation][rank]`` particle batches, a pure function of ``seed``."""
    decomp = fx.decomposition()
    out = []
    for g in range(fx.generations):
        workload = UintahWorkload(
            decomp,
            particles_per_core=fx.per_rank(smoke),
            distribution="uniform",
            seed=seed + g,
        )
        out.append([workload.generate_rank(r) for r in range(fx.ranks)])
    return out


def write_dataset(fx: Fixture, batches: list[ParticleBatch], root: str) -> None:
    """One collective ``SpatialWriter.write`` of ``batches`` into ``root``."""
    writer = SpatialWriter(fx.writer_config())
    decomp = fx.decomposition()
    backend = PosixBackend(root)
    run_mpi(
        fx.ranks,
        lambda comm: writer.write(comm, batches[comm.rank], decomp, backend),
    )
    backend.close()


def stored_bytes(root: str) -> int:
    """All bytes under a dataset root (data files, manifests, tables, pointers)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
