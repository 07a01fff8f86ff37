"""File-per-process baseline (IOR FPP equivalent).

Every rank dumps its local particles straight to its own file — maximal
write parallelism, zero aggregation, zero spatial organisation.  The paper's
Fig. 5 shows this saturating filesystems at scale (file-creation storms);
Fig. 7 shows its read cost when a small visualization job must traverse the
full file hierarchy.

Rank 0 still writes a manifest (readers need the dtype from somewhere), but
no spatial metadata exists: a reader cannot know which file holds which
region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.format.datafile import write_data_file
from repro.format.manifest import Manifest
from repro.format.metadata import data_file_name
from repro.io.backend import FileBackend
from repro.mpi.comm import SimComm
from repro.obs.names import PHASE_FILE_IO, PHASE_METADATA
from repro.obs.recorder import Recorder
from repro.particles.batch import ParticleBatch
from repro.utils.timing import TimeBreakdown


@dataclass
class BaselineWriteResult:
    """Per-rank outcome shared by all baseline writers.

    Phase times live in the obs :attr:`recorder` (same registry names as
    the spatial writer); :attr:`breakdown` is a derived view over it.
    """

    rank: int
    num_files: int
    files_written: list[str] = field(default_factory=list)
    bytes_written: int = 0
    #: the rank's instrumentation record for this write.
    recorder: Recorder = field(default_factory=Recorder)

    @property
    def breakdown(self) -> TimeBreakdown:
        """Phase view derived from the recorder's spans."""
        return self.recorder.breakdown(cat="phase")


class FilePerProcessWriter:
    """One file per rank, written independently."""

    def write(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        backend: FileBackend,
        recorder: Recorder | None = None,
    ) -> BaselineWriteResult:
        rec = recorder if recorder is not None else Recorder(rank=comm.rank)
        result = BaselineWriteResult(
            rank=comm.rank, num_files=comm.size, recorder=rec
        )
        with rec.span(PHASE_FILE_IO):
            path = data_file_name(comm.rank)
            result.bytes_written = write_data_file(
                backend, path, batch, actor=comm.rank
            )
            result.files_written.append(path)
        with rec.span(PHASE_METADATA):
            total = comm.allgather(len(batch))
            if comm.rank == 0:
                Manifest(
                    dtype=batch.dtype,
                    num_files=comm.size,
                    total_particles=sum(total),
                    writer={"strategy": "file-per-process", "nprocs": comm.size},
                ).write(backend, actor=0)
        return result
