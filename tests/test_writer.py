"""End-to-end writer tests: the eight-step pipeline (paper §3)."""

import numpy as np
import pytest

from repro.baselines.reader import read_whole_file
from repro.core import SpatialReader, SpatialWriter, WriterConfig
from repro.core.writer import PHASE_AGGREGATION, PHASE_FILE_IO, PHASE_LOD
from repro.domain import Box, PatchDecomposition
from repro.errors import RankFailedError
from repro.format.metadata import SpatialMetadata
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles import ParticleBatch, occupancy_particles, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE

from tests.conftest import write_dataset


class TestBasicWrite:
    def test_file_count_matches_formula(self):
        backend, _, results = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        # proc dims (2,2,2); (2,2,1) -> 1*1*2 = 2 files.
        assert results[0].num_files == 2
        assert len(backend.listdir("data")) == 2

    def test_all_outputs_present(self):
        backend, _, _ = write_dataset(nprocs=8)
        assert backend.exists("manifest.json")
        assert backend.exists("spatial.meta")
        assert backend.listdir("data")

    def test_aggregators_write_exactly_one_file_each(self):
        backend, _, results = write_dataset(nprocs=16, partition_factor=(2, 2, 2))
        writers = [r for r in results if r.is_aggregator]
        assert len(writers) == results[0].num_files
        for w in writers:
            assert len(w.files_written) == 1

    def test_file_names_match_metadata(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
        table = SpatialMetadata.read(backend)
        for rec in table:
            assert backend.exists(rec.file_path)

    def test_total_particles_preserved(self):
        backend, _, _ = write_dataset(nprocs=8, particles_per_rank=321)
        reader = SpatialReader(backend)
        assert reader.total_particles == 8 * 321

    def test_no_particle_lost_or_duplicated(self):
        backend, decomp, _ = write_dataset(nprocs=8, particles_per_rank=100)
        reader = SpatialReader(backend)
        everything = reader.read_full()
        expected_ids = set()
        for r in range(8):
            expected_ids |= set(
                uniform_particles(
                    decomp.patch_of_rank(r), 100, dtype=MINIMAL_DTYPE, seed=7, rank=r
                ).data["id"].tolist()
            )
        assert set(everything.data["id"].tolist()) == expected_ids

    def test_files_hold_only_their_partition(self):
        backend, _, _ = write_dataset(nprocs=16, partition_factor=(2, 2, 2))
        reader = SpatialReader(backend)
        for rec in reader.metadata:
            batch = read_whole_file(backend, rec.file_path, reader.dtype)
            assert rec.bounds.contains_points(batch.positions).all()

    def test_breakdown_phases_recorded(self):
        _, _, results = write_dataset(nprocs=8)
        agg = results[0]
        for phase in (PHASE_AGGREGATION, PHASE_FILE_IO, PHASE_LOD):
            assert phase in agg.breakdown.phases

    def test_lod_seed_reproducible(self):
        b1, _, _ = write_dataset(nprocs=4, config=WriterConfig(lod_seed=5))
        b2, _, _ = write_dataset(nprocs=4, config=WriterConfig(lod_seed=5))
        for name in b1.listdir("data"):
            assert b1.read_file(f"data/{name}") == b2.read_file(f"data/{name}")

    def test_different_seed_different_order(self):
        b1, _, _ = write_dataset(nprocs=4, config=WriterConfig(lod_seed=5))
        b2, _, _ = write_dataset(nprocs=4, config=WriterConfig(lod_seed=6))
        names = b1.listdir("data")
        assert any(
            b1.read_file(f"data/{n}") != b2.read_file(f"data/{n}") for n in names
        )

    def test_manifest_provenance(self):
        backend, _, _ = write_dataset(
            nprocs=8, config=WriterConfig(partition_factor=(2, 2, 2), lod_base=16)
        )
        reader = SpatialReader(backend)
        assert reader.manifest.lod_base == 16
        assert reader.manifest.writer["nprocs"] == 8
        assert reader.manifest.writer["config"]["partition_factor"] == [2, 2, 2]


class TestDegenerateConfigs:
    def test_file_per_process(self):
        backend, _, results = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
        assert results[0].num_files == 8
        assert all(r.is_aggregator for r in results)

    def test_single_shared_file(self):
        backend, _, results = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
        assert results[0].num_files == 1
        assert sum(r.is_aggregator for r in results) == 1

    def test_single_rank_world(self):
        backend, _, results = write_dataset(nprocs=1, partition_factor=(1, 1, 1))
        assert results[0].num_files == 1
        assert SpatialReader(backend).total_particles == 500


class TestStratifiedHeuristic:
    def test_writes_and_reads_back(self):
        cfg = WriterConfig(partition_factor=(2, 2, 2), lod_heuristic="stratified")
        backend, _, _ = write_dataset(nprocs=8, config=cfg)
        reader = SpatialReader(backend)
        assert reader.manifest.lod_heuristic == "stratified"
        assert len(reader.read_full()) == 8 * 500


class TestAdaptiveWrite:
    def test_empty_region_produces_no_files(self):
        domain = Box([0, 0, 0], [1, 1, 1])

        def batches(rank, patch):
            return occupancy_particles(domain, patch, 200, 0.25,
                                       dtype=MINIMAL_DTYPE, rank=rank)

        cfg = WriterConfig(partition_factor=(2, 2, 2), adaptive=True)
        backend, decomp, results = write_dataset(
            nprocs=16, config=cfg, batch_fn=batches, domain=domain
        )
        reader = SpatialReader(backend)
        assert all(rec.particle_count > 0 for rec in reader.metadata)
        static_files = 16 // 8
        assert reader.num_files <= static_files

    def test_adaptive_preserves_particles(self):
        domain = Box([0, 0, 0], [1, 1, 1])

        def batches(rank, patch):
            return occupancy_particles(domain, patch, 100, 0.5,
                                       dtype=MINIMAL_DTYPE, rank=rank)

        cfg = WriterConfig(partition_factor=(2, 2, 2), adaptive=True)
        backend, _, _ = write_dataset(nprocs=16, config=cfg, batch_fn=batches, domain=domain)
        assert SpatialReader(backend).total_particles == 16 * 100


class TestGridReuse:
    """A writer keeps its static grid between writes.  Writing different
    decompositions (and configs) back to back with one writer must give
    exactly what a fresh writer gives each time: the grid is rebuilt
    whenever anything it depends on changes."""

    UNIT = Box([0, 0, 0], [1, 1, 1])
    DECOMPS = [
        PatchDecomposition(UNIT, (2, 2, 2)),
        PatchDecomposition(UNIT, (4, 2, 1)),
        PatchDecomposition(Box([0, 0, 0], [2, 1, 1]), (2, 2, 2)),
        PatchDecomposition(UNIT, (2, 2, 2)),
    ]

    @staticmethod
    def written(writer, decomp):
        backend = VirtualBackend()

        def main(comm):
            # A pure function of (decomp, rank): both writers see one input.
            batch = uniform_particles(
                decomp.patch_of_rank(comm.rank), 150, dtype=MINIMAL_DTYPE, seed=11, rank=comm.rank
            )
            writer.write(comm, batch, decomp, backend)

        run_mpi(8, main)
        return dict(backend._files)

    @pytest.mark.parametrize(
        "config",
        [
            WriterConfig(partition_factor=(2, 2, 1)),
            WriterConfig(partition_factor=(2, 1, 1), align_to_patches=False),
            WriterConfig(partition_factor=(2, 2, 2), adaptive=True),
        ],
        ids=["aligned", "free", "adaptive"],
    )
    def test_one_writer_matches_fresh_writers(self, config):
        shared = SpatialWriter(config)
        for decomp in self.DECOMPS:
            assert self.written(shared, decomp) == self.written(SpatialWriter(config), decomp)

    def test_config_swap_rebuilds_the_grid(self):
        shared = SpatialWriter(WriterConfig(partition_factor=(2, 2, 1)))
        decomp = self.DECOMPS[1]  # 4 patches along x: a factor of 3 cuts
        self.written(shared, decomp)  # them 3 + 1 aligned, 2 + 2 free
        for config in (
            WriterConfig(partition_factor=(3, 2, 1)),
            WriterConfig(partition_factor=(3, 2, 1), align_to_patches=False),
        ):
            shared.config = config
            assert self.written(shared, decomp) == self.written(SpatialWriter(config), decomp)


class TestNonAlignedWrite:
    def test_general_path_roundtrips(self):
        cfg = WriterConfig(partition_factor=(2, 2, 2), align_to_patches=False)
        backend, _, _ = write_dataset(nprocs=8, config=cfg, particles_per_rank=150)
        reader = SpatialReader(backend)
        assert reader.total_particles == 8 * 150
        for rec in reader.metadata:
            if rec.particle_count:
                batch = read_whole_file(backend, rec.file_path, reader.dtype)
                assert rec.bounds.contains_points(batch.positions).all()


class TestAttrIndex:
    def test_ranges_cover_file_contents(self):
        from repro.particles.dtype import UINTAH_DTYPE

        cfg = WriterConfig(partition_factor=(2, 2, 2), attr_index=("density",))
        backend, _, _ = write_dataset(nprocs=8, config=cfg, dtype=UINTAH_DTYPE)
        reader = SpatialReader(backend)
        for rec in reader.metadata:
            lo, hi = rec.attr_ranges["density"]
            batch = read_whole_file(backend, rec.file_path, reader.dtype)
            col = batch.data["density"]
            assert lo == pytest.approx(col.min())
            assert hi == pytest.approx(col.max())

    def test_unknown_attr_fails(self):
        cfg = WriterConfig(attr_index=("pressure",))
        with pytest.raises(RankFailedError):
            write_dataset(nprocs=4, config=cfg)


class TestConfigValidation:
    def test_decomp_size_mismatch(self):
        decomp = PatchDecomposition.for_nprocs(Box([0, 0, 0], [1, 1, 1]), 8)
        writer = SpatialWriter(WriterConfig())
        backend = VirtualBackend()

        def main(comm):
            writer.write(comm, ParticleBatch.empty(MINIMAL_DTYPE), decomp, backend)

        with pytest.raises(RankFailedError):
            run_mpi(4, main)


class TestAggregatorCollisionGuard:
    """A rank owning two partitions would overwrite its own data file
    (files are named per aggregator rank).  The writer must refuse loudly
    instead of silently losing a partition."""

    def test_multi_partition_aggregator_rejected(self):
        decomp = PatchDecomposition.for_nprocs(Box([0, 0, 0], [1, 1, 1]), 4)
        backend = VirtualBackend()

        class CollidingWriter(SpatialWriter):
            def build_grid(self, comm, decomp, local_count):
                grid = super().build_grid(comm, decomp, local_count)
                # Force every partition onto rank 0 — the mapping no
                # supported grid produces, but a custom grid could.
                grid.aggregators = [0] * grid.num_partitions
                return grid

        writer = CollidingWriter(WriterConfig(partition_factor=(1, 1, 2)))

        def main(comm):
            patch = decomp.patch_of_rank(comm.rank)
            batch = uniform_particles(
                patch, 50, dtype=MINIMAL_DTYPE, seed=3, rank=comm.rank
            )
            writer.write(comm, batch, decomp, backend)

        with pytest.raises(RankFailedError, match="overwrite"):
            run_mpi(4, main)

    def test_normal_grids_unaffected(self):
        backend, _, results = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
        assert all(len(r.files_written) <= 1 for r in results)
