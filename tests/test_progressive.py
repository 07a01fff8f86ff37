"""Progressive refinement tests (paper §4)."""

import numpy as np
import pytest

from repro.core import ProgressiveReader, SpatialReader, WriterConfig
from repro.domain import Box
from repro.errors import QueryError
from repro.format.datafile import HEADER_BYTES
from repro.particles import concatenate

from tests.conftest import write_dataset


@pytest.fixture(scope="module")
def reader():
    backend, _, _ = write_dataset(
        nprocs=16, partition_factor=(2, 2, 2), particles_per_rank=300
    )
    return SpatialReader(backend)


class TestFullProgressive:
    def test_loads_everything_exactly_once(self, reader):
        prog = ProgressiveReader(reader, nreaders=1)
        pieces = []
        while not prog.done():
            pieces.append(prog.refine().new_particles)
        combined = concatenate(pieces)
        assert len(combined) == reader.total_particles
        assert len(set(combined.data["id"].tolist())) == reader.total_particles

    def test_level_sizes_follow_geometric_growth(self, reader):
        prog = ProgressiveReader(reader, nreaders=1)
        sizes = []
        while not prog.done():
            sizes.append(len(prog.refine().new_particles))
        base = reader.manifest.lod_base
        # First level = P, then doubling until the tail runs out.
        assert sizes[0] == base
        for i in range(1, len(sizes) - 1):
            assert sizes[i] == base * 2**i

    def test_incremental_matches_direct_lod_read(self, reader):
        prog = ProgressiveReader(reader, nreaders=2)
        got = prog.refine_to(3)
        direct = reader.read_full(max_level=3, nreaders=2)
        assert set(got.data["id"].tolist()) == set(direct.data["id"].tolist())

    def test_no_rereads(self, reader):
        """Each refine reads only new bytes (offsets advance monotonically)."""
        backend = reader.backend
        prog = ProgressiveReader(reader, nreaders=1)
        seen_ranges: dict[str, int] = {}
        while not prog.done():
            backend.clear_ops()
            prog.refine()
            for op in backend.ops_of_kind("read"):
                if not op.path.startswith("data/"):
                    continue
                if op.offset > 0 and op.nbytes > 0:
                    # Reads must start at or after the previous high-water mark.
                    assert op.offset >= seen_ranges.get(op.path, 0)
                    seen_ranges[op.path] = op.offset + op.nbytes

    def test_refine_after_done_raises(self, reader):
        prog = ProgressiveReader(reader, nreaders=1)
        prog.refine_to(100)
        assert prog.done()
        with pytest.raises(QueryError):
            prog.refine()

    def test_fraction_loaded_monotone(self, reader):
        prog = ProgressiveReader(reader, nreaders=1)
        prev = 0.0
        while not prog.done():
            step = prog.refine()
            assert step.fraction_loaded >= prev
            prev = step.fraction_loaded
        assert prev == pytest.approx(1.0)

    def test_final_level_bound(self, reader):
        prog = ProgressiveReader(reader, nreaders=1)
        while not prog.done():
            step = prog.refine()
        assert step.level <= prog.final_level + 1


class TestBoxProgressive:
    def test_restricted_to_box_files(self, reader):
        box = Box([0.0, 0.0, 0.0], [0.45, 0.9, 0.9])
        prog = ProgressiveReader(reader, nreaders=1, box=box)
        assert len(prog.records) < reader.num_files
        total = prog.total_particles
        pieces = []
        while not prog.done():
            pieces.append(prog.refine().new_particles)
        assert sum(len(p) for p in pieces) == total

    def test_invalid_nreaders(self, reader):
        with pytest.raises(QueryError):
            ProgressiveReader(reader, nreaders=0)


class TestColumnarProgressive:
    """A columnar dataset refines exactly as the row dataset of the same
    seed: each file's slice is one run of the one reader."""

    @pytest.fixture(scope="class")
    def pair(self):
        readers = {}
        for layout, codec in (("row", "none"), ("columnar", "shuffle-zlib")):
            backend, _, _ = write_dataset(
                nprocs=16, particles_per_rank=300,
                config=WriterConfig(partition_factor=(2, 2, 2), layout=layout, codec=codec),
            )
            readers[layout] = SpatialReader(backend)
        return readers

    def test_steps_equal_at_every_level(self, pair):
        progs = {layout: ProgressiveReader(r, nreaders=1) for layout, r in pair.items()}
        final = progs["row"].final_level
        assert final == progs["columnar"].final_level
        union = []
        for level in range(final + 1):
            steps = {layout: p.refine() for layout, p in progs.items()}
            rows = {k: np.sort(s.new_particles.data, order="id") for k, s in steps.items()}
            assert steps["row"].level == steps["columnar"].level == level
            assert rows["row"].tobytes() == rows["columnar"].tobytes()
            union.append(rows["row"])
            if progs["row"].done():
                break
        assert progs["row"].done() and progs["columnar"].done()
        full = np.sort(pair["row"].read_full().data, order="id")
        assert np.sort(np.concatenate(union), order="id").tobytes() == full.tobytes()

    def test_row_files_read_each_payload_byte_once(self, pair):
        reader = pair["row"]
        backend, itemsize = reader.backend, reader.dtype.itemsize
        extent = {rec.file_path: rec.particle_count * itemsize for rec in reader.metadata}
        prog = ProgressiveReader(reader, nreaders=1)
        backend.clear_ops()
        while not prog.done():
            prog.refine()
        payload = sum(
            op.nbytes
            for op in backend.ops_of_kind("read")
            if op.path in extent and HEADER_BYTES <= op.offset < HEADER_BYTES + extent[op.path]
        )
        assert payload == sum(extent.values())

    def test_columnar_steps_reread_at_most_one_chunk_per_file(self, pair):
        reader = pair["columnar"]
        backend = reader.backend
        spans = {}
        for rec in reader.metadata:
            segs = reader.dataset.chunk_index(rec).segments
            spans[rec.file_path] = (
                HEADER_BYTES + segs[:, 0, 0], HEADER_BYTES + segs[:, -1, 0] + segs[:, -1, 1]
            )
        seen: dict[str, set] = {path: set() for path in spans}
        prog = ProgressiveReader(reader, nreaders=1)
        while not prog.done():
            backend.clear_ops()
            prog.refine()
            step: dict[str, set] = {path: set() for path in spans}
            for op in backend.ops_of_kind("read"):
                if op.path in spans and op.offset >= HEADER_BYTES:
                    lo, hi = spans[op.path]
                    hit = (lo < op.offset + op.nbytes) & (op.offset < hi)
                    step[op.path].update(np.flatnonzero(hit).tolist())
            for path, chunks in step.items():
                assert len(chunks & seen[path]) <= 1, (path, prog.level)
                seen[path] |= chunks
        assert all(len(chunks) == len(spans[p][0]) for p, chunks in seen.items())
