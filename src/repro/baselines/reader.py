"""Reading datasets that carry no spatial metadata.

Formats produced by the baselines (and by our writer when the spatial table
has been lost) force the degraded access pattern the paper describes:
"every process [must] read all particles across all the files and then
cherry-pick the relevant particles."
"""

from __future__ import annotations

import numpy as np

from repro.dataset import Dataset
from repro.domain.box import Box
from repro.errors import DataFileError
from repro.format.datafile import read_whole_file
from repro.io.backend import FileBackend
from repro.particles.batch import ParticleBatch, concatenate


class UnstructuredReader:
    """Brute-force reader: list the data directory, read every file."""

    def __init__(self, backend: FileBackend, actor: int = -1):
        self.backend = backend
        self.actor = actor
        self.manifest = Dataset(backend, actor=actor).read_manifest()
        names = backend.listdir("data")
        if not names:
            raise DataFileError("dataset has no data files")
        self.paths = [f"data/{n}" for n in names]

    @property
    def dtype(self) -> np.dtype:
        return self.manifest.dtype

    @property
    def num_files(self) -> int:
        return len(self.paths)

    def read_all(self) -> ParticleBatch:
        return concatenate(
            read_whole_file(self.backend, p, self.dtype, self.actor) for p in self.paths
        )

    def read_box(self, box: Box) -> ParticleBatch:
        """A box query with no metadata: full scan, then filter."""
        everything = self.read_all()
        mask = box.contains_points(everything.positions, closed=True)
        return ParticleBatch(everything.data[mask])

    def read_assigned(self, nreaders: int, reader_rank: int) -> ParticleBatch:
        """Contiguous split of the file list for parallel full reads."""
        n = len(self.paths)
        lo = reader_rank * n // nreaders
        hi = (reader_rank + 1) * n // nreaders
        paths = self.paths[lo:hi]
        if not paths:
            return ParticleBatch(np.empty(0, dtype=self.dtype))
        return concatenate(
            read_whole_file(self.backend, p, self.dtype, self.actor) for p in paths
        )
