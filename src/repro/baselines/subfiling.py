"""Spatially-unaware subfiling baseline (HDF5-subfiling-like).

Two-phase I/O with the same aggregation *mechanics* as the spatially-aware
writer — k ranks aggregate, k files come out — but the grouping is by rank
id, not by space: ranks ``[g*group, (g+1)*group)`` feed aggregator ``g``
regardless of where their particles live.  On typical row-major rank
layouts, consecutive ranks form rows/slabs scattered across the domain, so
each output file's particles span distant regions (the middle panel of the
paper's Fig. 1).

The format writes no spatial metadata — there is no meaningful bounding box
per file to record — which is precisely why post-hoc readers must touch
every file for any spatial query.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fpp import BaselineWriteResult
from repro.errors import ConfigError
from repro.format.datafile import write_data_file
from repro.format.manifest import Manifest
from repro.format.metadata import data_file_name
from repro.io.backend import FileBackend
from repro.mpi.comm import SimComm
from repro.obs.names import PHASE_AGGREGATION, PHASE_FILE_IO, PHASE_METADATA
from repro.obs.recorder import Recorder
from repro.particles.batch import ParticleBatch


class RankOrderSubfilingWriter:
    """Aggregate contiguous rank blocks into one file per block."""

    def __init__(self, num_files: int):
        if num_files < 1:
            raise ConfigError(f"num_files must be >= 1, got {num_files}")
        self.num_files = num_files

    def _group_of(self, rank: int, nprocs: int) -> int:
        return rank * self.num_files // nprocs

    def _aggregator_of(self, group: int, nprocs: int) -> int:
        return group * nprocs // self.num_files

    def write(
        self,
        comm: SimComm,
        batch: ParticleBatch,
        backend: FileBackend,
        recorder: Recorder | None = None,
    ) -> BaselineWriteResult:
        nprocs = comm.size
        if self.num_files > nprocs:
            raise ConfigError(
                f"{self.num_files} subfiles need as many aggregators, "
                f"only {nprocs} ranks exist"
            )
        rec = recorder if recorder is not None else Recorder(rank=comm.rank)
        result = BaselineWriteResult(
            rank=comm.rank, num_files=self.num_files, recorder=rec
        )
        group = self._group_of(comm.rank, nprocs)
        agg = self._aggregator_of(group, nprocs)

        with rec.span(PHASE_AGGREGATION):
            # Two-phase exchange, same metadata-then-data shape as ours.
            comm.isend(len(batch), agg, tag=0)
            if len(batch):
                comm.isend(batch.data, agg, tag=1)
            aggregated = None
            if comm.rank == agg:
                senders = [
                    r for r in range(nprocs) if self._group_of(r, nprocs) == group
                ]
                counts = {s: int(comm.recv(source=s, tag=0)) for s in senders}
                buffer = np.empty(sum(counts.values()), dtype=batch.dtype)
                offset = 0
                for s in senders:
                    n = counts[s]
                    if n == 0:
                        continue
                    buffer[offset : offset + n] = comm.recv(source=s, tag=1)
                    offset += n
                aggregated = ParticleBatch(buffer)

        with rec.span(PHASE_FILE_IO):
            if aggregated is not None:
                path = data_file_name(comm.rank)
                result.bytes_written = write_data_file(
                    backend, path, aggregated, actor=comm.rank
                )
                result.files_written.append(path)

        with rec.span(PHASE_METADATA):
            total = comm.allgather(len(batch))
            if comm.rank == 0:
                Manifest(
                    dtype=batch.dtype,
                    num_files=self.num_files,
                    total_particles=sum(total),
                    writer={
                        "strategy": "rank-order-subfiling",
                        "nprocs": nprocs,
                        "num_files": self.num_files,
                    },
                ).write(backend, actor=0)
        return result
