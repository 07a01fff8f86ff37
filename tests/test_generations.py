"""Manifest generations: crash-safe append, snapshot isolation, compaction.

The MVCC contract under test:

* ``append`` commits generation N+1 by flipping the checksummed ``CURRENT``
  pointer; a reader pinned to generation N is bit-identical throughout.
* A crash at ANY mutating backend operation (write or delete — swept with
  ``FaultPlan.crash_after_ops``) leaves the dataset readable at exactly
  generation N or N+1, never a torn mix; ``repro repair`` converges it and
  the following scrub exits clean.
* Online compaction rewrites the chain's many small files as a
  consolidated new generation with identical full-resolution query
  results; retention GC never touches a generation a pinned reader holds
  within the ``keep`` window.

Seeded via ``REPRO_FAULT_SEED`` so CI can sweep the fault matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from tests.conftest import write_dataset
from repro.core import (
    SpatialReader,
    SpatialWriter,
    WriterConfig,
    collect_generations,
    compact_dataset,
    dataset_is_complete,
    repair_dataset,
    scrub_dataset,
)
from repro.core.repair import ACTION_DROP_GENERATION, ACTION_REWRITE_CURRENT
from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import (
    BackendError,
    ConfigError,
    DataFileError,
    FormatError,
    RankFailedError,
)
from repro.format.metadata import data_file_name
from repro.format.generations import (
    CURRENT_PATH,
    decode_current,
    encode_current,
    generation_manifest_path,
    generation_meta_path,
    list_generations,
    parse_generation_path,
    read_current,
    resolve_generation,
)
from repro.format.metadata import MetadataRecord, SpatialMetadata
from repro.io import VirtualBackend
from repro.io.faults import FaultInjectingBackend, FaultPlan
from repro.mpi import run_mpi
from repro.particles import uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

NPROCS = 4
PF = (2, 2, 1)
QUERY_BOX = Box([0.2, 0.2, 0.2], [0.8, 0.8, 0.8])


def clone(backend: VirtualBackend) -> VirtualBackend:
    out = VirtualBackend()
    out._files = dict(backend._files)
    return out


def append_step(backend, decomp, seed, n=60):
    """One SPMD append over the committed generation."""
    writer = SpatialWriter(WriterConfig(partition_factor=PF))

    def main(comm):
        patch = decomp.patch_of_rank(comm.rank)
        batch = uniform_particles(
            patch, n, dtype=MINIMAL_DTYPE, seed=seed, rank=comm.rank
        )
        return writer.append(comm, batch, decomp, backend)

    return run_mpi(NPROCS, main)


def canon(batch) -> np.ndarray:
    """Canonical row order: (id, x, y, z) lexsort — a total order for the
    minimal dtype, so bit-identity compares survive any file shuffle."""
    d = batch.data
    pos = d["position"]
    return d[np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], d["id"]))]


def query_mix(source, generation=None):
    """The fixed query mix every isolation assertion replays."""
    ds = (
        source
        if isinstance(source, Dataset)
        else Dataset(source, generation=generation)
    )
    reader = SpatialReader(ds)
    return (
        canon(reader.read_full()),
        canon(reader.read_box(QUERY_BOX)),
        canon(reader.read_full(max_level=1)),
    )


def mixes_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def chained():
    """A two-generation dataset: gen 0 overwrite + one append."""
    backend, decomp, _ = write_dataset(
        nprocs=NPROCS, partition_factor=PF, particles_per_rank=120
    )
    append_step(backend, decomp, seed=101)
    return backend, decomp


# -- CURRENT pointer codec -----------------------------------------------------


class TestCurrentCodec:
    @pytest.mark.parametrize("gen", [0, 1, 7, 12345])
    def test_roundtrip(self, gen):
        assert decode_current(encode_current(gen)) == gen

    def test_negative_generation_rejected(self):
        with pytest.raises(FormatError):
            encode_current(-1)

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"garbage\n",
            b"spio-current 1\n",
            b"spio-current 1 3 00000000\n",  # checksum wrong
            encode_current(3)[:-3],  # torn tail
        ],
    )
    def test_damage_raises(self, raw):
        with pytest.raises(FormatError):
            decode_current(raw)

    def test_tampered_generation_fails_checksum(self):
        raw = bytearray(encode_current(3))
        raw[raw.index(b" 3 ") + 1] = ord("4")
        with pytest.raises(FormatError):
            decode_current(bytes(raw))

    def test_read_current_absent_is_none(self):
        assert read_current(VirtualBackend()) is None


class TestGenerationPaths:
    def test_parse(self):
        assert parse_generation_path("manifest.gen-3.json") == ("manifest", 3)
        assert parse_generation_path("spatial.gen-12.meta") == ("meta", 12)
        assert parse_generation_path("manifest.json") is None
        assert parse_generation_path("spatial.meta") is None

    def test_gen0_paths_are_classic(self):
        assert generation_manifest_path(0) == "manifest.json"
        assert generation_meta_path(0) == "spatial.meta"
        assert data_file_name(2, 0) == "data/file_2.pbin"

    def test_chained_paths_are_namespaced(self):
        assert generation_manifest_path(4) == "manifest.gen-4.json"
        assert generation_meta_path(4) == "spatial.gen-4.meta"
        assert data_file_name(2, 4) == "data/g4_file_2.pbin"

    def test_negative_generation_rejected(self):
        with pytest.raises(DataFileError):
            data_file_name(0, -1)


# -- metadata v4 (per-generation records) --------------------------------------


class TestMetadataGenerations:
    def _rec(self, box_id, gen, lo=0.0, hi=1.0):
        return MetadataRecord(
            box_id=box_id,
            agg_rank=0,
            particle_count=10,
            bounds=Box([lo] * 3, [hi] * 3),
            gen=gen,
        )

    def test_gen_roundtrips_through_bytes(self):
        table = SpatialMetadata([self._rec(0, 0), self._rec(1, 2, 2.0, 3.0)])
        back = SpatialMetadata.from_bytes(table.to_bytes())
        assert [r.gen for r in back.records] == [0, 2]
        assert back.records[1].file_path == "data/g2_file_0.pbin"

    def test_all_gen0_table_serialises_as_v3(self):
        """Gen-aware code must not change the bytes of classic datasets:
        the table only upgrades to the v4 layout when a record actually
        carries a non-zero generation (version int sits after the magic)."""
        table = SpatialMetadata([self._rec(0, 0)])
        chained = SpatialMetadata([self._rec(0, 0), self._rec(1, 1, 2.0, 3.0)])
        assert table.to_bytes()[8:12] == (3).to_bytes(4, "little")
        assert chained.to_bytes()[8:12] == (4).to_bytes(4, "little")

    def test_same_gen_same_rank_collides(self):
        with pytest.raises(FormatError):
            SpatialMetadata([self._rec(0, 1), self._rec(1, 1, 2.0, 3.0)])

    def test_same_rank_across_gens_is_fine(self):
        table = SpatialMetadata([self._rec(0, 0), self._rec(1, 1, 0.0, 1.0)])
        # Overlapping bounds are also fine across generations.
        assert len(table.records) == 2


# -- append / MVCC -------------------------------------------------------------


class TestAppendMVCC:
    def test_append_commits_next_generation(self, chained):
        backend, _decomp = chained
        assert read_current(backend) == 1
        assert list_generations(backend) == [0, 1]
        ds = Dataset(backend)
        assert ds.generation == 1
        assert ds.manifest.generation == 1
        assert ds.manifest.parent == 0
        assert ds.manifest.total_particles == NPROCS * (120 + 60)

    def test_pinned_reader_is_isolated_from_append(self):
        backend, decomp, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, particles_per_rank=100
        )
        pinned = Dataset(backend)  # resolves and memoizes gen 0
        before = query_mix(pinned)
        append_step(backend, decomp, seed=7)
        # Same facade object, no invalidation: still generation 0, every
        # query bit-identical.
        assert pinned.generation == 0
        assert mixes_equal(before, query_mix(pinned))
        # A fresh facade sees the new generation.
        fresh = Dataset(backend)
        assert fresh.generation == 1
        assert len(SpatialReader(fresh).read_full()) == NPROCS * 160

    def test_at_generation_time_travel(self, chained):
        backend, _decomp = chained
        ds = Dataset(backend)
        old = ds.at_generation(0)
        assert old.generation == 0
        assert ds.generation == 1
        assert len(SpatialReader(old).read_full()) == NPROCS * 120
        assert mixes_equal(query_mix(old), query_mix(backend, generation=0))

    def test_generations_listing(self, chained):
        backend, _decomp = chained
        assert Dataset(backend).generations() == [0, 1]

    def test_invalidate_cache_keeps_pin(self, chained):
        backend, _decomp = chained
        pinned = Dataset(backend, generation=0)
        assert pinned.generation == 0
        pinned.invalidate_cache()
        assert pinned.pinned_generation == 0
        assert pinned.generation == 0

    def test_append_rejects_mismatched_lod(self, chained):
        backend, decomp = chained
        writer = SpatialWriter(
            WriterConfig(partition_factor=PF, lod_base=99)
        )

        def main(comm):
            patch = decomp.patch_of_rank(comm.rank)
            batch = uniform_particles(
                patch, 10, dtype=MINIMAL_DTYPE, seed=1, rank=comm.rank
            )
            return writer.append(comm, batch, decomp, clone(backend))

        with pytest.raises(RankFailedError, match="LOD"):
            run_mpi(NPROCS, main)

    def test_overwrite_invalidates_whole_chain(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        write_dataset(
            nprocs=NPROCS, partition_factor=PF, particles_per_rank=50,
            backend=b,
        )
        assert read_current(b) is None
        assert list_generations(b) == [0]
        assert scrub_dataset(Dataset(b)).ok


# -- the crash matrix ----------------------------------------------------------


def _mutation_ops_of_append(chained):
    """Count the mutating ops (writes + deletes) of one append."""
    backend, decomp = chained
    faulty = FaultInjectingBackend(clone(backend), FaultPlan())
    append_step(faulty, decomp, seed=999)
    assert faulty.faults_injected == 0
    return faulty.writes_completed + faulty.deletes_completed


class TestAppendCrashMatrix:
    def test_crash_at_every_op_is_snapshot_isolated(self, chained):
        """The tentpole property: crash the appender at op k for EVERY k.

        Throughout: a reader pinned to generation N replays the fixed
        query mix bit-identically.  Afterwards: the dataset resolves to
        exactly N or N+1, repair converges it, and the verification scrub
        exits clean.
        """
        backend, decomp = chained
        total = _mutation_ops_of_append(chained)
        assert 3 <= total <= 24, total
        base_mix = query_mix(backend, generation=1)
        base_len = NPROCS * (120 + 60)

        for k in range(total):
            inner = clone(backend)
            faulty = FaultInjectingBackend(
                inner, FaultPlan.crash_after_ops(k, seed=FAULT_SEED)
            )
            pinned = Dataset(inner, generation=1)
            with pytest.raises(RankFailedError):
                append_step(faulty, decomp, seed=2000 + k)
            assert faulty.fault_counts["crash"] >= 1, f"op {k}"

            # Snapshot isolation: the pinned reader never saw a thing.
            assert mixes_equal(base_mix, query_mix(pinned)), f"op {k}"

            # Atomicity: the interrupted dataset reads as exactly N or N+1.
            resolved = resolve_generation(inner)
            assert resolved.generation in (1, 2), f"op {k}: {resolved}"
            survivors = query_mix(inner)
            assert len(survivors[0]) in (base_len, base_len + NPROCS * 60)

            # Repair converges whatever the crash left, scrub exits 0.
            report = repair_dataset(Dataset(inner))
            assert report.exit_code == 0, (k, report.summary_lines())
            verify = scrub_dataset(Dataset(inner))
            assert verify.ok, (k, [i.code for i in verify.issues])
            assert resolve_generation(inner).generation in (1, 2)
            assert dataset_is_complete(inner), f"op {k}"
            # The pinned generation survived repair bit-identically too.
            assert mixes_equal(base_mix, query_mix(inner, generation=1))


# -- compaction ----------------------------------------------------------------


@pytest.fixture(scope="module")
def long_chain():
    """Gen 0 + three appends: 4 generations, one small file per commit."""
    backend, decomp, _ = write_dataset(
        nprocs=NPROCS, partition_factor=PF, particles_per_rank=80
    )
    for seed in (11, 12, 13):
        append_step(backend, decomp, seed=seed, n=40)
    return backend, decomp


class TestCompaction:
    def test_compact_preserves_queries_and_consolidates(self, long_chain):
        backend, _decomp = long_chain
        b = clone(backend)
        before = query_mix(b)
        files_before = len(Dataset(b).metadata)
        report = compact_dataset(Dataset(b), target_files=2, keep=2)
        assert report.source_generation == 3
        assert report.new_generation == 4
        assert report.files_before == files_before
        ds = Dataset(b)
        assert ds.generation == 4
        assert len(ds.metadata) == 2
        # Full-resolution queries are bit-identical (LOD prefixes are
        # re-drawn by design — consolidation reshuffles).
        after = query_mix(b)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert scrub_dataset(Dataset(b)).ok

    def test_gc_respects_keep_window_and_pinned_readers(self, long_chain):
        backend, _decomp = long_chain
        b = clone(backend)
        pinned = Dataset(b, generation=3)
        pre = query_mix(pinned)
        compact_dataset(Dataset(b), target_files=1, keep=2)
        assert list_generations(b) == [3, 4]
        # keep=2 retained the pinned generation: bit-identical reads.
        assert mixes_equal(pre, query_mix(pinned))
        assert scrub_dataset(Dataset(b)).ok
        # Tightening retention to 1 drops generation 3 and its files.
        gc = collect_generations(Dataset(b), keep=1)
        assert gc.dropped == [3]
        assert gc.files_deleted
        assert gc.bytes_reclaimed > 0
        assert list_generations(b) == [4]
        assert scrub_dataset(Dataset(b)).ok
        assert np.array_equal(pre[0], query_mix(b)[0])

    def test_dry_run_writes_nothing(self, long_chain):
        backend, _decomp = long_chain
        b = clone(backend)
        snapshot = dict(b._files)
        report = compact_dataset(Dataset(b), dry_run=True)
        assert report.dry_run
        assert report.new_generation == report.source_generation
        assert b._files == snapshot
        gc = collect_generations(Dataset(b), keep=1, dry_run=True)
        assert gc.dry_run and gc.dropped
        assert b._files == snapshot

    def test_gc_refuses_damaged_pointer(self, long_chain):
        backend, _decomp = long_chain
        b = clone(backend)
        b.write_file(CURRENT_PATH, b"mangled")
        with pytest.raises(FormatError, match="repair"):
            collect_generations(Dataset(b), keep=1)

    def test_crash_during_compaction_is_atomic(self, long_chain):
        """Crash the compactor at every mutating op: the dataset always
        resolves to the old or the new generation, and repair converges."""
        backend, _decomp = long_chain
        counter = FaultInjectingBackend(clone(backend), FaultPlan())
        compact_dataset(Dataset(counter), target_files=2, keep=2)
        total = counter.writes_completed + counter.deletes_completed
        assert total >= 4
        base_mix = query_mix(backend)

        for k in range(total):
            inner = clone(backend)
            faulty = FaultInjectingBackend(
                inner, FaultPlan.crash_after_ops(k, seed=FAULT_SEED)
            )
            with pytest.raises((RankFailedError, BackendError)):
                compact_dataset(
                    Dataset(faulty), target_files=2, keep=2
                )
            resolved = resolve_generation(inner)
            assert resolved.generation in (3, 4), f"op {k}: {resolved}"
            report = repair_dataset(Dataset(inner))
            assert report.exit_code == 0, (k, report.summary_lines())
            assert scrub_dataset(Dataset(inner)).ok, f"op {k}"
            # Whatever generation survived serves identical full-res reads.
            assert np.array_equal(base_mix[0], query_mix(inner)[0]), f"op {k}"


# -- scrub / repair of chain damage --------------------------------------------


class TestChainScrubRepair:
    def _codes(self, backend):
        return sorted({i.code for i in scrub_dataset(Dataset(backend)).issues})

    def test_current_corrupt(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        b.write_file(CURRENT_PATH, b"not a pointer")
        assert "current-corrupt" in self._codes(b)
        assert not dataset_is_complete(b)
        report = repair_dataset(Dataset(b))
        assert report.exit_code == 0
        assert any(a.kind == ACTION_REWRITE_CURRENT for a in report.actions)
        assert read_current(b) == 1
        assert scrub_dataset(Dataset(b)).ok

    def test_current_missing_with_chain(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        b.delete(CURRENT_PATH)
        assert "current-missing" in self._codes(b)
        assert not dataset_is_complete(b)
        repair_dataset(Dataset(b))
        assert read_current(b) == 1
        assert scrub_dataset(Dataset(b)).ok

    def test_current_dangling(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        b.write_file(CURRENT_PATH, encode_current(9))
        assert "current-dangling" in self._codes(b)
        repair_dataset(Dataset(b))
        assert read_current(b) == 1
        assert scrub_dataset(Dataset(b)).ok

    def test_generation_ahead_dropped(self, chained):
        backend, decomp = chained
        b = clone(backend)
        append_step(b, decomp, seed=55)  # gen 2
        b.write_file(CURRENT_PATH, encode_current(1))  # ...never flipped
        assert "generation-ahead" in self._codes(b)
        report = repair_dataset(Dataset(b))
        assert report.exit_code == 0
        assert any(a.kind == ACTION_DROP_GENERATION for a in report.actions)
        assert list_generations(b) == [0, 1]
        assert scrub_dataset(Dataset(b)).ok
        # The ahead generation's unique files went to quarantine, intact.
        assert any(
            n.startswith("g2_") for n in b.listdir("quarantine/data")
        )

    def test_generation_residue_swept(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        b.write_file("spatial.gen-5.meta", b"orphaned table bytes")
        assert "generation-residue" in self._codes(b)
        repair_dataset(Dataset(b))
        assert not b.exists("spatial.gen-5.meta")
        assert scrub_dataset(Dataset(b)).ok

    def test_damaged_target_generation_falls_back(self, chained):
        """CURRENT names gen 1 but gen 1's manifest is mangled: scrub
        reports it, repair rebuilds gen 1 from its recovery trailers."""
        backend, _decomp = chained
        b = clone(backend)
        raw = bytes(b.read_file("manifest.gen-1.json"))
        b.write_file("manifest.gen-1.json", raw[: len(raw) // 2])
        ds = Dataset(b)
        report = repair_dataset(ds)
        assert report.exit_code == 0
        assert scrub_dataset(Dataset(b)).ok
        assert Dataset(b).generation == 1
        assert mixes_equal(
            query_mix(backend, generation=1), query_mix(b, generation=1)
        )


# -- satellites ----------------------------------------------------------------


class TestQuarantineInventory:
    def test_scrub_reports_quarantine_contents(self, chained):
        backend, decomp = chained
        b = clone(backend)
        append_step(b, decomp, seed=66)  # gen 2
        b.write_file(CURRENT_PATH, encode_current(1))
        repair_dataset(Dataset(b))  # quarantines the ahead generation
        report = scrub_dataset(Dataset(b))
        assert report.ok  # leftover quarantine is inventory, not damage
        assert report.quarantined
        # Inventory paths are relative to quarantine/ and keep their layout.
        assert any(q.startswith("data/g2_") for q in report.quarantined)
        joined = "\n".join(report.summary_lines())
        assert "[quarantined]" in joined
        assert f"quarantined     : {len(report.quarantined)}" in joined

    def test_clean_dataset_reports_empty_inventory(self, chained):
        backend, _decomp = chained
        report = scrub_dataset(Dataset(backend))
        assert report.quarantined == []


class TestRepairInvalidatesFacade:
    def test_kept_open_facade_sees_repaired_state(self, chained):
        """Satellite 1: Dataset.repair() must invalidate the facade's
        caches itself — a kept-open facade queries repaired state without
        any manual invalidate_cache() call."""
        backend, _decomp = chained
        b = clone(backend)
        ds = Dataset(b)
        assert ds.generation == 1  # resolution memoized now
        before = query_mix(backend, generation=1)
        b.write_file(CURRENT_PATH, b"mangled pointer")
        report = ds.repair()
        assert report.exit_code == 0
        # No invalidate_cache() here — repair did it.
        assert ds.generation == 1
        assert mixes_equal(before, query_mix(ds))

    def test_repair_resets_pin_resolution_only(self, chained):
        backend, _decomp = chained
        b = clone(backend)
        pinned = Dataset(b, generation=0)
        b.write_file(CURRENT_PATH, b"mangled pointer")
        pinned.repair()
        assert pinned.pinned_generation == 0
        assert pinned.generation == 0
