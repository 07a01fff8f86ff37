"""Metadata + particle exchange tests (paper §3.3)."""

import numpy as np
import pytest

from repro.core.aggregation import AggregationGrid, FreeAggregationGrid
from repro.core.exchange import exchange_particles
from repro.domain import Box, CellGrid, PatchDecomposition
from repro.errors import RankFailedError
from repro.mpi import World, run_mpi
from repro.particles import ParticleBatch, concatenate, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE

DOMAIN = Box([0, 0, 0], [1, 1, 1])


def run_exchange(nprocs, grid_factory, batch_factory, world=None):
    decomp = PatchDecomposition.for_nprocs(DOMAIN, nprocs)
    grid = grid_factory(decomp)

    def main(comm):
        batch = batch_factory(comm.rank, decomp)
        return exchange_particles(comm, grid, batch), batch

    results = run_mpi(nprocs, main, world=world)
    return decomp, grid, results


def uniform_factory(count=200):
    def make(rank, decomp):
        return uniform_particles(
            decomp.patch_of_rank(rank), count, dtype=MINIMAL_DTYPE, seed=3, rank=rank
        )

    return make


class TestAlignedExchange:
    def test_conservation(self):
        """No particle lost, none duplicated, across the whole exchange."""
        _, grid, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 2, 2)), uniform_factory()
        )
        received = concatenate(
            [b for res, _ in results for b in res.aggregated.values()]
        )
        sent = concatenate([batch for _, batch in results])
        assert len(received) == len(sent) == 8 * 200
        assert set(received.data["id"].tolist()) == set(sent.data["id"].tolist())

    def test_particles_land_in_their_partition(self):
        _, grid, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 1, 1)), uniform_factory()
        )
        for res, _ in results:
            for pid, batch in res.aggregated.items():
                box = grid.partition_box(pid)
                assert box.contains_points(batch.positions).all()

    def test_only_aggregators_receive(self):
        _, grid, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 2, 2)), uniform_factory()
        )
        for rank, (res, _) in enumerate(results):
            if rank in grid.aggregators:
                assert res.particles_received > 0
            else:
                assert res.aggregated == {}
                assert res.particles_received == 0

    def test_each_rank_contacts_one_aggregator(self):
        _, _, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 2, 2)), uniform_factory()
        )
        for res, _ in results:
            assert res.aggregators_contacted == 1

    def test_file_per_process_is_local(self):
        world = World(4)
        _, _, results = run_exchange(
            4,
            lambda d: AggregationGrid.aligned(d, (1, 1, 1)),
            uniform_factory(50),
            world=world,
        )
        # Everything is a self-send: zero off-node traffic.
        assert world.stats.total_bytes(include_self=False) == 0
        for rank, (res, batch) in enumerate(results):
            assert res.aggregated[rank] == batch

    def test_empty_batches_fine(self):
        def empty_factory(rank, decomp):
            return ParticleBatch.empty(MINIMAL_DTYPE)

        _, grid, results = run_exchange(
            4, lambda d: AggregationGrid.aligned(d, (2, 2, 1)), empty_factory
        )
        for res, _ in results:
            for batch in res.aggregated.values():
                assert len(batch) == 0

    def test_aggregation_buffer_is_exact(self):
        """The aggregator's buffer holds exactly the announced particles."""
        _, grid, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 2, 2)), uniform_factory(123)
        )
        agg_res = results[grid.aggregators[0]][0]
        (batch,) = agg_res.aggregated.values()
        assert len(batch) == 8 * 123

    def test_buffer_is_senders_rows_in_rank_order(self):
        """Each sender's rows land in its slice as raw bytes: padding, NaN
        payloads and negative zeros survive the exchange unchanged."""
        padded = np.dtype(
            [("position", "<f8", (3,)), ("type", "u1"), ("mass", "<f8")], align=True
        )

        def raw_factory(rank, decomp):
            count = 40 + 7 * rank
            rng = np.random.default_rng(rank)
            data = rng.integers(0, 256, count * padded.itemsize, dtype=np.uint8).view(padded)
            patch = decomp.patch_of_rank(rank)
            data["position"] = patch.lo + rng.random((count, 3)) * (patch.hi - patch.lo)
            data["mass"][:2] = [-0.0, np.nan]
            return ParticleBatch(data)

        _, grid, results = run_exchange(
            8, lambda d: AggregationGrid.aligned(d, (2, 2, 1)), raw_factory
        )
        for pid, agg in enumerate(grid.aggregators):
            senders = grid.senders_of_partition(pid)
            assert senders == sorted(senders)
            (batch,) = results[agg][0].aggregated.values()
            assert batch.dtype == padded
            expected = b"".join(results[r][1].data.tobytes() for r in senders)
            assert batch.data.tobytes() == expected

    def test_grid_comm_size_mismatch(self):
        decomp = PatchDecomposition.for_nprocs(DOMAIN, 8)
        grid = AggregationGrid.aligned(decomp, (1, 1, 1))

        def main(comm):
            exchange_particles(comm, grid, ParticleBatch.empty(MINIMAL_DTYPE))

        with pytest.raises(RankFailedError):
            run_mpi(4, main)


class TestNonAlignedExchange:
    def test_conservation_with_binning(self):
        _, grid, results = run_exchange(
            4,
            lambda d: FreeAggregationGrid(d, CellGrid(DOMAIN, (3, 1, 1))),
            uniform_factory(250),
        )
        received = sum(
            len(b) for res, _ in results for b in res.aggregated.values()
        )
        assert received == 4 * 250

    def test_straddling_rank_contacts_multiple_aggregators(self):
        _, grid, results = run_exchange(
            4,
            lambda d: FreeAggregationGrid(d, CellGrid(DOMAIN, (3, 1, 1))),
            uniform_factory(250),
        )
        # With 4 patches over 3 partitions, ranks 1 and 2 straddle boundaries.
        assert results[1][0].aggregators_contacted == 2
        assert results[2][0].aggregators_contacted == 2

    def test_partition_contents_respect_boxes(self):
        _, grid, results = run_exchange(
            4,
            lambda d: FreeAggregationGrid(d, CellGrid(DOMAIN, (3, 1, 1))),
            uniform_factory(),
        )
        for res, _ in results:
            for pid, batch in res.aggregated.items():
                assert grid.partition_box(pid).contains_points(batch.positions).all()


class TestTrafficPattern:
    def test_communication_confined_to_partitions(self):
        """Senders only talk to their own partition's aggregator (§3.1)."""
        world = World(16)
        decomp = PatchDecomposition.for_nprocs(DOMAIN, 16)
        grid = AggregationGrid.aligned(decomp, (2, 2, 1))

        def main(comm):
            batch = uniform_particles(
                decomp.patch_of_rank(comm.rank), 40, dtype=MINIMAL_DTYPE,
                seed=0, rank=comm.rank,
            )
            return exchange_particles(comm, grid, batch)

        run_mpi(16, main, world=world)
        for pid in range(grid.num_partitions):
            agg = grid.aggregator_of_partition(pid)
            for sender in grid.senders_of_partition(pid):
                assert world.stats.pair_bytes(sender, agg) > 0
        # A rank in partition 0 never sends to partition 3's aggregator.
        outside = [
            (s, d)
            for (s, d) in world.stats.snapshot()
            if s != d and grid.partition_of_rank(s) not in grid.partitions_owned_by(d)
            and d in grid.aggregators
        ]
        assert outside == []
