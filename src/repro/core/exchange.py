"""Metadata and particle exchange (paper §3.3).

Unlike grid data, aggregators cannot know a priori how many particles they
will receive, so the exchange runs in two phases:

1. **metadata exchange** — every sender tells each of its aggregators how
   many particles to expect (a small eager message per partition);
2. **particle exchange** — the aggregator allocates one contiguous buffer of
   exactly the right size, then receives each sender's particles directly
   into its slice.

Both phases use non-blocking point-to-point messages, mirroring the paper.
Senders and receivers derive the sender lists deterministically from the
aggregation grid, so no handshaking round is needed.

The aligned fast path sends a rank's whole batch in one message; the
non-aligned path first bins particles per intersecting partition
(``grid.route_particles``), which is the per-particle scan the paper
describes for grids that do not align with the simulation decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregation import BaseAggregationGrid
from repro.errors import MPIError
from repro.mpi.comm import SimComm
from repro.particles.batch import ParticleBatch, as_records

# Tag layout: two tags per partition id on the user channel.  The writer is
# the only user of the communicator while a write is in flight.
_TAG_STRIDE = 2
_TAG_META = 0
_TAG_DATA = 1


def _meta_tag(pid: int) -> int:
    return pid * _TAG_STRIDE + _TAG_META


def _data_tag(pid: int) -> int:
    return pid * _TAG_STRIDE + _TAG_DATA


@dataclass
class ExchangeResult:
    """What one rank got out of the exchange."""

    #: partition id -> aggregated batch, for partitions this rank owns.
    aggregated: dict[int, ParticleBatch] = field(default_factory=dict)
    #: particles this rank shipped out (including to itself).
    particles_sent: int = 0
    #: particles this rank received as an aggregator.
    particles_received: int = 0
    #: number of distinct aggregators this rank sent to.
    aggregators_contacted: int = 0


def exchange_particles(
    comm: SimComm,
    grid: BaseAggregationGrid,
    batch: ParticleBatch,
) -> ExchangeResult:
    """Run the two-phase exchange; returns aggregated batches for owned partitions.

    SPMD: every participating rank calls this with its local ``batch``.
    Ranks excluded by an adaptive grid (no particles) still call it — they
    simply send nothing and, if they own no partition, receive nothing.
    """
    rank = comm.rank
    if grid.nprocs != comm.size:
        raise MPIError(
            f"grid was built for {grid.nprocs} ranks, communicator has {comm.size}"
        )
    result = ExchangeResult()
    dtype = batch.dtype

    # ---- send side: route local particles, post metadata + data sends ----
    routed = grid.route_particles(rank, batch)
    contacted: set[int] = set()
    for pid, sub in routed:
        agg = grid.aggregator_of_partition(pid)
        contacted.add(agg)
        comm.isend(len(sub), agg, tag=_meta_tag(pid))
        if len(sub):
            comm.isend(sub.data, agg, tag=_data_tag(pid))
            result.particles_sent += len(sub)
    result.aggregators_contacted = len(contacted)

    # ---- receive side: per owned partition, gather counts then particles ----
    for pid in grid.partitions_owned_by(rank):
        senders = grid.senders_of_partition(pid)
        counts: dict[int, int] = {}
        for sender in senders:
            counts[sender] = int(comm.recv(source=sender, tag=_meta_tag(pid)))
        total = sum(counts.values())
        # Step 4 of the pipeline: one contiguous aggregation buffer.
        # Each sender's rows land in their slice as opaque records.
        buffer = np.empty(total, dtype=dtype)
        slots = as_records(buffer)
        offset = 0
        for sender in senders:
            n = counts[sender]
            if n == 0:
                continue
            data = comm.recv(source=sender, tag=_data_tag(pid))
            if not isinstance(data, np.ndarray) or data.dtype != dtype:
                raise MPIError(
                    f"partition {pid}: sender {sender} shipped "
                    f"{getattr(data, 'dtype', type(data))}, expected {dtype}"
                )
            if len(data) != n:
                raise MPIError(
                    f"partition {pid}: sender {sender} announced {n} particles "
                    f"but shipped {len(data)}"
                )
            slots[offset : offset + n] = as_records(data)
            offset += n
        result.aggregated[pid] = ParticleBatch(buffer)
        result.particles_received += total
    return result
