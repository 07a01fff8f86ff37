"""Baseline writer/reader tests (IOR-FPP, shared file, rank-order subfiling)."""

import numpy as np
import pytest

from repro.baselines import (
    FilePerProcessWriter,
    RankOrderSubfilingWriter,
    SharedFileWriter,
    UnstructuredReader,
)
from repro.baselines.reader import read_whole_file
from repro.baselines.shared import SHARED_FILE_PATH
from repro.domain import Box, PatchDecomposition
from repro.errors import ConfigError, RankFailedError
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles import uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE

DOMAIN = Box([0, 0, 0], [1, 1, 1])


def run_baseline(writer, nprocs=8, count=100):
    decomp = PatchDecomposition.for_nprocs(DOMAIN, nprocs)
    backend = VirtualBackend()

    def main(comm):
        batch = uniform_particles(
            decomp.patch_of_rank(comm.rank), count, dtype=MINIMAL_DTYPE,
            seed=2, rank=comm.rank,
        )
        return writer.write(comm, batch, backend)

    results = run_mpi(nprocs, main)
    return backend, decomp, results


class TestFilePerProcess:
    def test_one_file_per_rank(self):
        backend, _, results = run_baseline(FilePerProcessWriter())
        assert len(backend.listdir("data")) == 8
        assert all(len(r.files_written) == 1 for r in results)

    def test_no_spatial_metadata(self):
        backend, _, _ = run_baseline(FilePerProcessWriter())
        assert not backend.exists("spatial.meta")
        assert backend.exists("manifest.json")

    def test_readback_complete(self):
        backend, _, _ = run_baseline(FilePerProcessWriter())
        reader = UnstructuredReader(backend)
        assert len(reader.read_all()) == 800

    def test_no_network_traffic(self):
        from repro.mpi import World

        world = World(4)
        decomp = PatchDecomposition.for_nprocs(DOMAIN, 4)
        backend = VirtualBackend()
        writer = FilePerProcessWriter()

        def main(comm):
            b = uniform_particles(decomp.patch_of_rank(comm.rank), 10,
                                  dtype=MINIMAL_DTYPE, rank=comm.rank)
            return writer.write(comm, b, backend)

        run_mpi(4, main, world=world)
        # Only the manifest allgather moves data, no particles.
        assert world.stats.total_bytes() < 10_000


class TestSharedFile:
    def test_single_file(self):
        backend, _, results = run_baseline(SharedFileWriter())
        assert backend.exists(SHARED_FILE_PATH)
        assert len(backend.listdir("data")) == 1
        assert sum(len(r.files_written) for r in results) == 1

    def test_rank_order_preserved(self):
        backend, _, _ = run_baseline(SharedFileWriter(), nprocs=4, count=10)
        reader = UnstructuredReader(backend)
        everything = reader.read_all()
        # ids were assigned rank*count + i -> rank-order concat = sorted ids.
        ids = everything.data["id"].tolist()
        assert ids == sorted(ids)

    def test_readback_complete(self):
        backend, _, _ = run_baseline(SharedFileWriter())
        assert len(UnstructuredReader(backend).read_all()) == 800


class TestRankOrderSubfiling:
    def test_file_count(self):
        backend, _, _ = run_baseline(RankOrderSubfilingWriter(num_files=4))
        assert len(backend.listdir("data")) == 4

    def test_no_spatial_locality_in_files(self):
        """Rank-grouped files span nearly the whole domain (Fig. 1 middle)."""
        backend, decomp, _ = run_baseline(
            RankOrderSubfilingWriter(num_files=4), nprocs=8, count=200
        )
        reader = UnstructuredReader(backend)
        for path in reader.paths:
            batch = read_whole_file(backend, path, MINIMAL_DTYPE)
            bb = batch.bounding_box()
            # Each file covers most of the domain, not a compact sub-box.
            assert bb.volume > 0.2 * DOMAIN.volume

    def test_conservation(self):
        backend, _, _ = run_baseline(RankOrderSubfilingWriter(num_files=2))
        everything = UnstructuredReader(backend).read_all()
        assert len(everything) == 800
        assert len(set(everything.data["id"].tolist())) == 800

    def test_aggregators_spread(self):
        backend, _, results = run_baseline(RankOrderSubfilingWriter(num_files=4))
        writers = sorted(r.rank for r in results if r.files_written)
        assert writers == [0, 2, 4, 6]

    def test_too_many_files_rejected(self):
        with pytest.raises(RankFailedError):
            run_baseline(RankOrderSubfilingWriter(num_files=16), nprocs=8)

    def test_zero_files_rejected(self):
        with pytest.raises(ConfigError):
            RankOrderSubfilingWriter(num_files=0)


class TestUnstructuredReader:
    def test_box_query_correct_but_full_scan(self):
        backend, _, _ = run_baseline(FilePerProcessWriter())
        reader = UnstructuredReader(backend)
        q = Box([0, 0, 0], [0.5, 0.5, 0.5])
        backend.clear_ops()
        hits = reader.read_box(q)
        everything = reader.read_all()
        mask = q.contains_points(everything.positions, closed=True)
        assert len(hits) == int(mask.sum())
        # The scan touched every data file.
        opened = {p for p in backend.files_touched("open") if p.startswith("data/")}
        assert len(opened) >= reader.num_files

    def test_read_assigned_partitions(self):
        backend, _, _ = run_baseline(FilePerProcessWriter())
        reader = UnstructuredReader(backend)
        parts = [reader.read_assigned(3, r) for r in range(3)]
        assert sum(len(p) for p in parts) == 800

    def test_empty_dataset_rejected(self):
        backend = VirtualBackend()
        from repro.format.manifest import Manifest

        Manifest(dtype=MINIMAL_DTYPE, num_files=0, total_particles=0).write(backend)
        from repro.errors import DataFileError

        with pytest.raises(DataFileError):
            UnstructuredReader(backend)
