"""Old-vs-new read-path parity: the perf overhaul must be invisible.

The chunk index, vectorized planning, scatter-gather execution, and block
cache are pure optimisations — every observable output (decoded batches,
``ReadReport`` ledgers, obs span/event streams) must be bit-identical to
the legacy whole-file path, whichever executor ran the plan and whether or
not a fault plan was biting.  This suite pins that contract, plus the
planning-table memoization and scrub/repair round-trips on chunk-indexed
v3 files.
"""

import os

import numpy as np

from repro.core import SpatialReader, scrub_dataset
from repro.core.config import WriterConfig
from repro.dataset import Dataset
from repro.domain import Box
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import TRAILER_FOOTER_BYTES
from repro.format.manifest import Manifest
from repro.format.metadata import SpatialMetadata, table_crc32
from repro.io.executor import SerialExecutor, ThreadedExecutor
from repro.io.faults import FaultInjectingBackend, FaultPlan
from repro.obs.names import CACHE_HIT, CACHE_MISS
from repro.particles.batch import ParticleBatch

from .conftest import write_dataset

#: Same knob the CI fault matrix turns for test_failure_injection.py.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: ~8% of the unit domain: small enough that chunk pruning engages.
QUERY = Box([0.1, 0.1, 0.1], [0.55, 0.5, 0.45])


def chunked_dataset():
    """A dataset written with the default (chunk-indexed) config."""
    backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
    return backend


def chunkless_dataset():
    """Same data, chunk indexing disabled (the pre-chunking layout)."""
    backend, _, _ = write_dataset(
        nprocs=8,
        config=WriterConfig(partition_factor=(2, 2, 2), chunk_size=0),
    )
    return backend


def sorted_rows(batch: ParticleBatch) -> np.ndarray:
    return np.sort(batch.data, order="id")


def span_shape(recorder):
    return [(s.name, s.cat, s.parent, s.rank) for s in recorder.spans]


def event_shape(recorder):
    return [
        (e.name, e.cat, e.rank, tuple(sorted(e.args.items())))
        for e in recorder.events
    ]


def data_paths(backend):
    return sorted(f"data/{n}" for n in backend.listdir("data"))


class TestResultParity:
    def test_pruned_vs_whole_file_bit_identical(self):
        """Chunk-pruned execution == whole-file execution, byte for byte.

        A pruned read delivers the runs in file order, so after the exact
        filter both paths produce the same subsequence of each file — the
        batches must match without any sorting.
        """
        reader = SpatialReader(chunked_dataset())
        plan = reader.plan_box_read(QUERY)
        assert plan.chunk_runs, "query was expected to engage chunk pruning"
        assert plan.pruned_particles < plan.total_particles
        pruned = reader.execute(plan, exact=True)

        plan.chunk_runs.clear()  # force the legacy whole-file path
        whole = reader.execute(plan, exact=True)
        assert pruned.data.tobytes() == whole.data.tobytes()

    def test_chunked_vs_chunkless_same_particles(self):
        """Chunk clustering reorders within files but loses nothing."""
        a = SpatialReader(chunked_dataset())
        b = SpatialReader(chunkless_dataset())
        ba = a.execute(a.plan_box_read(QUERY), exact=True)
        bb = b.execute(b.plan_box_read(QUERY), exact=True)
        assert np.array_equal(sorted_rows(ba), sorted_rows(bb))
        assert not b.plan_box_read(QUERY).chunk_runs

    def test_non_exact_reads_ignore_chunk_runs(self):
        """Without the exact filter a pruned read would drop particles the
        box owns but the chunk bounds over-approximate — so whole files."""
        reader = SpatialReader(chunked_dataset())
        plan = reader.plan_box_read(QUERY)
        assert plan.chunk_runs
        batch = reader.execute(plan, exact=False)
        assert len(batch) == plan.total_particles

    def test_lod_prefix_parity(self):
        """LOD prefixes are exempt from pruning and level sets are assigned
        before clustering, so prefix reads see the same particles."""
        a = SpatialReader(chunked_dataset())
        b = SpatialReader(chunkless_dataset())
        plan = a.plan_box_read(QUERY, max_level=1)
        assert not plan.chunk_runs  # prefix entries are never pruned
        ba = a.execute(plan, exact=True)
        bb = b.execute(b.plan_box_read(QUERY, max_level=1), exact=True)
        assert np.array_equal(sorted_rows(ba), sorted_rows(bb))

    def test_full_read_parity(self):
        a = SpatialReader(chunked_dataset())
        b = SpatialReader(chunkless_dataset())
        assert np.array_equal(
            sorted_rows(a.read_full()), sorted_rows(b.read_full())
        )


class TestExecutorParity:
    """Serial vs threaded execution: identical batches, reports, traces."""

    def run_one(self, executor):
        backend = chunked_dataset()
        ds = Dataset.open(backend, executor=executor)
        reader = ds.reader()
        batch = reader.execute(reader.plan_box_read(QUERY), exact=True)
        return batch, reader.last_report, ds.recorder

    def test_batches_reports_traces_identical(self):
        sb, sr, srec = self.run_one(SerialExecutor())
        tb, tr, trec = self.run_one(ThreadedExecutor(max_workers=4))
        assert sb.data.tobytes() == tb.data.tobytes()
        assert sr == tr
        assert span_shape(srec) == span_shape(trec)
        assert event_shape(srec) == event_shape(trec)

    def test_threaded_prefix_read_parity(self):
        backend = chunked_dataset()
        serial = Dataset.open(backend).reader()
        threaded = Dataset.open(
            backend, executor=ThreadedExecutor(max_workers=4)
        ).reader()
        a = serial.read_box(QUERY, max_level=1)
        b = threaded.read_box(QUERY, max_level=1)
        assert a.data.tobytes() == b.data.tobytes()
        assert serial.last_report == threaded.last_report


class TestCacheParity:
    def test_cached_read_identical(self):
        backend = chunked_dataset()
        plain = Dataset.open(backend).reader()
        cached = Dataset.open(backend, cache_bytes=32 * 2**20).reader()
        want = plain.execute(plain.plan_box_read(QUERY), exact=True)
        cold = cached.execute(cached.plan_box_read(QUERY), exact=True)
        warm = cached.execute(cached.plan_box_read(QUERY), exact=True)
        assert want.data.tobytes() == cold.data.tobytes()
        assert want.data.tobytes() == warm.data.tobytes()

    def test_warm_cache_issues_zero_backend_io(self):
        backend = chunked_dataset()
        ds = Dataset.open(backend, cache_bytes=32 * 2**20)
        ds.backend.attach_recorder(ds.recorder)
        reader = ds.reader()
        reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert ds.recorder.total(CACHE_MISS) > 0

        backend.clear_ops()
        hits_before = ds.backend.hits
        reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert backend.ops_of_kind("read") == []
        assert backend.ops_of_kind("open") == []
        assert ds.backend.hits > hits_before
        assert ds.recorder.total(CACHE_HIT) > 0

    def test_cache_applies_to_whole_file_reads_too(self):
        backend = chunked_dataset()
        ds = Dataset.open(backend, cache_bytes=32 * 2**20)
        reader = ds.reader()
        reader.read_full()
        backend.clear_ops()
        reader.read_full()
        assert backend.ops_of_kind("read") == []


class TestFaultParity:
    def faulty(self, inner, **kwargs):
        plan = FaultPlan.transient_reads(
            heal_after=1, path_glob="data/*", seed=FAULT_SEED
        )
        return FaultInjectingBackend(inner, plan)

    def test_transient_faults_leave_results_identical(self):
        inner = chunked_dataset()
        clean = SpatialReader(inner)
        want = clean.execute(clean.plan_box_read(QUERY), exact=True)

        reader = SpatialReader(self.faulty(inner))
        plan = reader.plan_box_read(QUERY)
        assert plan.chunk_runs  # pruning stays on under fault injection
        got = reader.execute(plan, exact=True)
        assert want.data.tobytes() == got.data.tobytes()
        report = reader.last_report
        assert report.complete
        assert report.retries > 0

    def test_transient_faults_threaded_parity(self):
        inner = chunked_dataset()
        clean = SpatialReader(inner)
        want = clean.execute(clean.plan_box_read(QUERY), exact=True)
        reader = Dataset.open(
            self.faulty(inner), executor=ThreadedExecutor(max_workers=4)
        ).reader()
        got = reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert want.data.tobytes() == got.data.tobytes()
        assert reader.last_report.complete

    def test_transient_faults_with_cache_parity(self):
        inner = chunked_dataset()
        clean = SpatialReader(inner)
        want = clean.execute(clean.plan_box_read(QUERY), exact=True)
        ds = Dataset.open(self.faulty(inner), cache_bytes=32 * 2**20)
        reader = ds.reader()
        cold = reader.execute(reader.plan_box_read(QUERY), exact=True)
        warm = reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert want.data.tobytes() == cold.data.tobytes()
        assert want.data.tobytes() == warm.data.tobytes()


class TestPlanningMemoization:
    def test_lod_prefix_table_computed_once(self, monkeypatch):
        """Regression: _prefix_for used to rebuild the LOD apportionment on
        every plan; it must hit the facade's memo after the first."""
        import repro.core.lod as lod_mod

        calls = []
        real = lod_mod.lod_prefix_counts

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lod_mod, "lod_prefix_counts", counting)
        reader = Dataset.open(chunked_dataset()).reader()
        plans = [reader.plan_box_read(QUERY, max_level=1) for _ in range(5)]
        assert len(calls) == 1
        assert all(p.entries == plans[0].entries for p in plans)
        # A different (max_level, nreaders) key is a genuine new table.
        reader.plan_box_read(QUERY, max_level=1, nreaders=2)
        assert len(calls) == 2
        reader.plan_box_read(QUERY, max_level=1, nreaders=2)
        assert len(calls) == 2

    def test_chunk_index_memoized_per_file(self):
        ds = Dataset.open(chunked_dataset())
        rec = ds.metadata.records[0]
        first = ds.chunk_index(rec)
        assert first is not None
        assert ds.chunk_index(rec) is first


def recommit_section(backend, path: str, index: FileChunkIndex) -> None:
    """Replace ``path``'s chunk section in ``spatial.meta`` with ``index``
    and re-commit the table's CRC in the manifest: a CRC-valid table whose
    index says something else."""
    meta = SpatialMetadata.read_whole(backend)
    rec = next(r for r in meta.records if r.file_path == path)
    rec.section = index.to_section()
    blob = meta.to_bytes()
    backend.write_file("spatial.meta", blob)
    m = Manifest.read(backend)
    m.spatial_meta_crc32 = table_crc32(blob)
    m.write(backend)


def section_index(backend, path: str) -> FileChunkIndex:
    rec = next(r for r in SpatialMetadata.read_whole(backend) if r.file_path == path)
    return FileChunkIndex.unpack(rec.section, path)


class TestScrubRepairChunkIndex:
    def test_scrub_clean_on_chunk_indexed_dataset(self):
        backend = chunked_dataset()
        ds = Dataset(backend)
        report = scrub_dataset(ds)
        assert report.ok, [i.code for i in report.issues]
        assert all(ds.chunk_index(rec) is not None for rec in ds.metadata)

    def test_manifest_chunk_damage_repairs_losslessly(self):
        backend = chunked_dataset()
        reader = SpatialReader(backend)
        before = reader.execute(reader.plan_box_read(QUERY), exact=True)
        victim = data_paths(backend)[0]
        orig_manifest = backend.read_file("manifest.json")
        orig_meta = backend.read_file("spatial.meta")

        index = section_index(backend, victim)
        index.lo[0, 0] -= 0.25  # widen one chunk's lo
        recommit_section(backend, victim, index)

        report = scrub_dataset(Dataset(backend))
        codes = {i.code for i in report.issues}
        assert "chunk-index-mismatch" in codes
        assert all(i.repairable for i in report.issues)

        assert Dataset(backend).repair(report).ok
        assert scrub_dataset(Dataset(backend)).ok
        # The rebuilt index comes from the payload, so it matches the
        # writer's original bit for bit.
        assert backend.read_file("spatial.meta") == orig_meta
        assert backend.read_file("manifest.json") == orig_manifest
        after_reader = Dataset.open(backend).reader()
        plan = after_reader.plan_box_read(QUERY)
        assert plan.chunk_runs  # pruning works again post-repair
        after = after_reader.execute(plan, exact=True)
        assert before.data.tobytes() == after.data.tobytes()

    def test_trailer_chunk_damage_repairs_losslessly(self):
        backend = chunked_dataset()
        victim = data_paths(backend)[0]
        orig = backend.read_file(victim)
        backend.write_file(victim, orig[:-TRAILER_FOOTER_BYTES])

        report = scrub_dataset(Dataset(backend))
        assert not report.ok
        assert Dataset(backend).repair(report).ok
        # The regenerated trailer carries the chunk index: bytes restored.
        assert backend.read_file(victim) == orig
        assert scrub_dataset(Dataset(backend)).ok

    def test_manifest_lost_and_trailer_clipped_restores_chunks(self):
        """With the manifest gone AND one file's trailer torn, the repair
        derives that file's entry from dataset-wide facts recovered from the
        donor trailers (dtype, LOD pair, chunk size) — every data file comes
        back bit-identical, healthy trailers are not rewritten, and the
        rebuilt manifest still carries every chunk index."""
        # (1,1,1) keeps one file per rank — the donor must be a *different*
        # file from the victim.
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
        originals = {p: backend.read_file(p) for p in data_paths(backend)}
        victim = data_paths(backend)[0]
        backend.delete("manifest.json")
        backend.write_file(victim, originals[victim][:-100])  # clip mid-trailer

        report = scrub_dataset(Dataset(backend))
        result = Dataset(backend).repair(report)
        assert result.ok and not result.unresolved
        # Only the clipped trailer needed rewriting.
        rewrites = [a for a in result.actions if a.kind == "rewrite-trailer"]
        assert [a.path for a in rewrites] == [victim]
        for path, raw in originals.items():
            assert backend.read_file(path) == raw
        ds = Dataset(backend)
        assert scrub_dataset(ds).ok
        assert all(ds.chunk_index(rec) is not None for rec in ds.metadata)
        plan = ds.reader().plan_box_read(QUERY)
        assert plan.chunk_runs

    def test_mismatched_trailer_chunks_flagged(self):
        """A trailer whose chunk index disagrees with the table's is a
        repairable trailer-mismatch."""
        backend = chunked_dataset()
        victim = data_paths(backend)[0]
        m = Manifest.read(backend)
        # Rebuild the table section with a coarser (but internally valid)
        # index than the trailer's: recompute at a doubled chunk size.
        from repro.format.chunks import build_chunk_entry
        from repro.format.datafile import (
            prefix_checksum_boundaries,
            read_data_file,
        )

        batch = read_data_file(backend, victim, m.dtype)
        ds = Dataset(backend)
        boundaries = prefix_checksum_boundaries(
            len(batch), m.lod_base, m.lod_scale
        )
        recommit_section(
            backend,
            victim,
            build_chunk_entry(batch, 128, boundaries, ds.metadata.attr_names),
        )

        report = scrub_dataset(Dataset(backend))
        assert not report.ok
        assert {"trailer-mismatch"} <= {i.code for i in report.issues}
        assert Dataset(backend).repair(report).ok
        assert scrub_dataset(Dataset(backend)).ok
