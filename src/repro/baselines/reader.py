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
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import (
    DATA_VERSION_COLUMNAR,
    HEADER_BYTES,
    parse_data_header,
    read_particle_runs_into,
    read_recovery_trailer,
)
from repro.io.backend import FileBackend
from repro.particles.batch import ParticleBatch, concatenate


def read_whole_file(
    backend: FileBackend, path: str, dtype: np.dtype, actor: int = -1
) -> ParticleBatch:
    """Every particle of one data file, with no table to size the read: the
    count comes from the file's header and, for a columnar (v4) file, the
    chunk index from its own recovery trailer.  A row file too short for
    its header's count is refused before anything is allocated."""
    size = backend.size(path)
    head = backend.read_range(path, 0, min(HEADER_BYTES, size), actor=actor)
    version, rec_size, count = parse_data_header(bytes(head), path)
    index = None
    if version >= DATA_VERSION_COLUMNAR and count:
        trailer = read_recovery_trailer(backend, path, actor=actor)
        index = FileChunkIndex.unpack(trailer.record.section, path).validated(
            count, path, trailer.codec
        )
    elif HEADER_BYTES + count * rec_size > size:
        raise DataFileError(
            f"{path}: expected {HEADER_BYTES + count * rec_size} bytes for "
            f"{count} particles, found {size}"
        )
    out = np.empty(count, dtype=dtype)
    read_particle_runs_into(backend, path, dtype, index, ((0, count),), out, actor=actor)
    return ParticleBatch(out)


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
