"""Failure injection: corrupted datasets, lying peers, broken backends.

The fault-plan seed is taken from ``REPRO_FAULT_SEED`` (default 0) so CI can
sweep several deterministic schedules without editing the tests.
"""

import os

import numpy as np
import pytest

from repro.core import SpatialReader, dataset_is_complete, scrub_dataset
from repro.dataset import Dataset
from repro.domain import Box
from repro.format.datafile import HEADER_BYTES
from repro.errors import (
    BackendError,
    DataChecksumError,
    DataFileError,
    FormatError,
    MetadataError,
    RankFailedError,
)
from repro.io import (
    FaultInjectingBackend,
    FaultPlan,
    RetryPolicy,
    SerialExecutor,
    ThreadedExecutor,
    VirtualBackend,
)

from tests.conftest import write_dataset

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture
def dataset():
    backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
    return backend


@pytest.fixture
def dataset8():
    """Eight data files (one per rank), for partial-damage scenarios."""
    backend, _, _ = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
    return backend


class TestCorruptMetadata:
    def test_truncated_metadata(self, dataset):
        raw = dataset.read_file("spatial.meta")
        dataset.write_file("spatial.meta", raw[: len(raw) // 2])
        with pytest.raises(MetadataError):
            SpatialReader(dataset)

    def test_garbage_metadata(self, dataset):
        dataset.write_file("spatial.meta", b"\xff" * 64)
        with pytest.raises(MetadataError):
            SpatialReader(dataset)

    def test_deleted_metadata(self, dataset):
        dataset.delete("spatial.meta")
        with pytest.raises(MetadataError):
            SpatialReader(dataset)

    def test_empty_metadata_file(self, dataset):
        dataset.write_file("spatial.meta", b"")
        with pytest.raises(MetadataError):
            SpatialReader(dataset)


class TestCorruptManifest:
    def test_truncated_manifest(self, dataset):
        raw = dataset.read_file("manifest.json")
        dataset.write_file("manifest.json", raw[:20])
        with pytest.raises(FormatError):
            SpatialReader(dataset)

    def test_wrong_dtype_in_manifest(self, dataset):
        """A manifest whose dtype disagrees with the data files is caught at
        read time by the record-size check."""
        import json

        doc = json.loads(dataset.read_file("manifest.json"))
        doc["dtype_descr"] = [["position", "<f8", [3]], ["extra", "<f8"], ["id", "<f8"]]
        dataset.write_file("manifest.json", json.dumps(doc).encode())
        reader = SpatialReader(dataset)
        with pytest.raises(DataFileError, match="record size"):
            reader.read_full()


class TestCorruptDataFiles:
    def test_missing_data_file(self, dataset):
        reader = SpatialReader(dataset)
        victim = reader.metadata.records[0].file_path
        dataset.delete(victim)
        with pytest.raises(BackendError):
            reader.read_full()

    def test_truncated_data_file(self, dataset):
        # Cut into the particle records themselves — clipping only the v3
        # recovery trailer leaves the payload readable by design.
        reader = SpatialReader(dataset)
        victim = reader.metadata.records[0].file_path
        raw = dataset.read_file(victim)
        dataset.write_file(victim, raw[: HEADER_BYTES + 100])
        with pytest.raises(DataFileError):
            reader.read_full()

    def test_count_mismatch_header_vs_metadata(self, dataset):
        """Metadata says N particles; the data file header says otherwise.

        The LOD prefix reader trusts the metadata for planning, so the
        mismatch surfaces as a DataFileError when the slice runs past the
        header's count."""
        reader = SpatialReader(dataset)
        rec = reader.metadata.records[0]
        raw = bytearray(dataset.read_file(rec.file_path))
        import struct

        struct.pack_into("<Q", raw, 16, 5)  # header now claims 5 particles
        dataset.write_file(rec.file_path, bytes(raw))
        with pytest.raises(DataFileError):
            reader.read_full()


class TestFailingBackend:
    class ExplodingBackend(VirtualBackend):
        """Fails every read after the first N."""

        def __init__(self, allowed_reads: int):
            super().__init__()
            self.allowed = allowed_reads

        def _spend(self, path):
            if path.startswith("data/"):
                if self.allowed <= 0:
                    raise BackendError("injected I/O failure")
                self.allowed -= 1

        def read_file(self, path, actor=-1):
            self._spend(path)
            return super().read_file(path, actor)

        def readv(self, path, segments, actor=-1):
            self._spend(path)
            return super().readv(path, segments, actor)

    def test_mid_read_failure_propagates(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
        exploding = self.ExplodingBackend(allowed_reads=3)
        # Copy dataset into the exploding backend.
        for name in ("manifest.json", "spatial.meta"):
            exploding.write_file(name, backend.read_file(name))
        for name in backend.listdir("data"):
            exploding.write_file(f"data/{name}", backend.read_file(f"data/{name}"))
        exploding.allowed = 3
        reader = SpatialReader(exploding)
        with pytest.raises(BackendError, match="injected"):
            reader.read_full()


class TestScrubDetection:
    """`scrub_dataset` must catch every corruption class of the acceptance
    criteria: truncation, garbage, deletion, count mismatch, bit flip."""

    def test_clean_dataset_scrubs_clean(self, dataset8):
        report = scrub_dataset(dataset8)
        assert report.ok
        assert report.complete
        assert report.files_checked == 8
        assert report.bytes_verified > 0

    def test_detects_truncation(self, dataset):
        victim = SpatialReader(dataset).metadata.records[0].file_path
        dataset.write_file(victim, dataset.read_file(victim)[: HEADER_BYTES + 100])
        report = scrub_dataset(dataset)
        assert not report.ok
        assert "data-truncated" in report.codes

    def test_detects_trailer_damage(self, dataset):
        # Clip only the recovery trailer: the payload stays readable, but
        # the scrubber flags the lost self-description.
        victim = SpatialReader(dataset).metadata.records[0].file_path
        dataset.write_file(victim, dataset.read_file(victim)[:-40])
        report = scrub_dataset(dataset)
        assert "trailer-damaged" in report.codes
        assert all(i.repairable for i in report.issues)

    def test_detects_garbage(self, dataset):
        victim = SpatialReader(dataset).metadata.records[0].file_path
        dataset.write_file(victim, b"\xde\xad\xbe\xef" * 32)
        assert "data-header" in scrub_dataset(dataset).codes

    def test_detects_deletion(self, dataset):
        victim = SpatialReader(dataset).metadata.records[0].file_path
        dataset.delete(victim)
        report = scrub_dataset(dataset)
        assert "data-missing" in report.codes
        assert not report.complete

    def test_detects_count_mismatch(self, dataset):
        import struct

        victim = SpatialReader(dataset).metadata.records[0].file_path
        raw = bytearray(dataset.read_file(victim))
        struct.pack_into("<Q", raw, 16, 5)
        dataset.write_file(victim, bytes(raw))
        assert "count-mismatch" in scrub_dataset(dataset).codes

    def test_detects_dtype_mismatch(self, dataset8):
        """A CRC-valid file whose header record size disagrees with the
        manifest dtype: scrub names it, repair quarantines it."""
        import struct
        import zlib

        victim = SpatialReader(dataset8).metadata.records[0]
        itemsize = Dataset(dataset8).manifest.dtype.itemsize
        raw = bytearray(dataset8.read_file(victim.file_path))
        struct.pack_into("<I", raw, 12, itemsize + 8)
        end = HEADER_BYTES + victim.particle_count * itemsize
        struct.pack_into("<I", raw, end + 4, zlib.crc32(raw[:end]))  # re-commit the footer
        dataset8.write_file(victim.file_path, bytes(raw))
        report = scrub_dataset(dataset8)
        assert report.codes == {"dtype-mismatch"}
        assert not any(i.repairable for i in report.issues)
        result = Dataset(dataset8).repair(report)
        assert [a.path for a in result.actions if a.kind == "quarantine-unrecoverable"] == [
            victim.file_path
        ]
        assert result.particles_lost == victim.particle_count
        assert dataset8.exists(f"quarantine/{victim.file_path}")
        assert not dataset8.exists(victim.file_path)
        assert scrub_dataset(dataset8).ok

    def test_detects_payload_bit_flip(self, dataset):
        victim = SpatialReader(dataset).metadata.records[0].file_path
        raw = bytearray(dataset.read_file(victim))
        raw[100] ^= 0x04  # one bit, somewhere in the records
        dataset.write_file(victim, bytes(raw))
        report = scrub_dataset(dataset)
        assert "data-checksum" in report.codes
        assert not any(i.repairable for i in report.issues)

    def test_detects_metadata_bit_flip(self, dataset):
        raw = bytearray(dataset.read_file("spatial.meta"))
        raw[40] ^= 0x10
        dataset.write_file("spatial.meta", bytes(raw))
        assert "metadata-checksum" in scrub_dataset(dataset).codes

    def test_detects_orphan_file(self, dataset):
        dataset.write_file("data/file_99.pbin", b"leftover")
        report = scrub_dataset(dataset)
        assert "data-orphan" in report.codes
        assert all(i.repairable for i in report.issues)

    def test_detects_manifest_metadata_disagreement(self, dataset):
        """The manifest pins spatial.meta by CRC — a table swapped in from
        elsewhere (internally valid, wrong dataset) is caught."""
        import json

        doc = json.loads(dataset.read_file("manifest.json"))
        doc["spatial_meta_crc32"] = (doc["spatial_meta_crc32"] + 1) % 2**32
        dataset.write_file("manifest.json", json.dumps(doc).encode())
        assert "metadata-crc-mismatch" in scrub_dataset(dataset).codes


class TestDegradedReads:
    def _corrupt_one(self, dataset):
        reader = SpatialReader(dataset)
        victim = reader.metadata.records[0]
        raw = bytearray(dataset.read_file(victim.file_path))
        raw[HEADER_BYTES + 4] ^= 0x01  # a byte inside the particle records
        dataset.write_file(victim.file_path, bytes(raw))
        return victim

    def test_strict_read_raises(self, dataset8):
        self._corrupt_one(dataset8)
        with pytest.raises(DataChecksumError):
            SpatialReader(dataset8).read_full()

    def test_degraded_read_skips_and_reports(self, dataset8):
        victim = self._corrupt_one(dataset8)
        reader = SpatialReader(dataset8, strict=False)
        clean_total = reader.total_particles
        batch = reader.read_full()
        report = reader.last_report
        assert not report.complete
        assert report.partitions_skipped == 1
        assert report.skipped[0].path == victim.file_path
        assert report.skipped[0].reason == "checksum"
        assert report.partitions_read == 7
        assert len(batch) == report.particles_read
        assert len(batch) == clean_total - victim.particle_count

    def test_degraded_read_of_missing_file(self, dataset8):
        reader = SpatialReader(dataset8, strict=False)
        victim = reader.metadata.records[3]
        dataset8.delete(victim.file_path)
        batch = reader.read_full()
        assert reader.last_report.skipped[0].reason == "missing"
        assert reader.last_report.skipped_boxes() == [victim.box_id]
        assert len(batch) == reader.total_particles - victim.particle_count

    def test_degraded_clean_read_is_complete(self, dataset8):
        reader = SpatialReader(dataset8, strict=False)
        batch = reader.read_full()
        assert reader.last_report.complete
        assert reader.last_report.partitions_read == 8
        assert len(batch) == reader.total_particles


class TestTransientFaultHealing:
    """Faults that heal within the retry budget must be invisible: results
    byte-identical to a fault-free run."""

    def test_write_through_transient_faults_is_byte_identical(self):
        clean, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
        inner = VirtualBackend()
        faulty = FaultInjectingBackend(
            inner, FaultPlan.transient_writes(heal_after=2, seed=FAULT_SEED)
        )
        _, _, results = write_dataset(
            nprocs=8,
            partition_factor=(2, 2, 2),
            backend=faulty,
            retry=RetryPolicy.immediate(max_attempts=5, seed=FAULT_SEED),
        )
        assert faulty.fault_counts["transient"] > 0
        assert sum(r.retries for r in results) == faulty.fault_counts["transient"]
        names = ["manifest.json", "spatial.meta"] + [
            f"data/{n}" for n in sorted(clean.listdir("data"))
        ]
        assert sorted(clean.listdir("data")) == sorted(inner.listdir("data"))
        for name in names:
            assert inner.read_file(name) == clean.read_file(name), name
        assert scrub_dataset(inner).ok

    def test_read_through_transient_faults_is_byte_identical(self, dataset):
        expected = SpatialReader(dataset).read_full()
        faulty = FaultInjectingBackend(
            dataset,
            FaultPlan.transient_reads(
                heal_after=2, path_glob="data/*", seed=FAULT_SEED
            ),
        )
        reader = SpatialReader(
            faulty, retry=RetryPolicy.immediate(max_attempts=5, seed=FAULT_SEED)
        )
        batch = reader.read_full()
        assert faulty.fault_counts["transient"] > 0
        assert reader.last_report.retries == faulty.fault_counts["transient"]
        assert batch.tobytes() == expected.tobytes()

    def test_retry_budget_too_small_gives_up(self, dataset):
        faulty = FaultInjectingBackend(
            dataset,
            FaultPlan.transient_reads(
                heal_after=5, path_glob="data/*", seed=FAULT_SEED
            ),
        )
        reader = SpatialReader(
            faulty, retry=RetryPolicy.immediate(max_attempts=2, seed=FAULT_SEED)
        )
        from repro.errors import TransientBackendError

        with pytest.raises(TransientBackendError):
            reader.read_full()

    def test_exhausted_retries_degrade_gracefully(self, dataset):
        """strict=False: unhealed transients skip the partition instead."""
        faulty = FaultInjectingBackend(
            dataset,
            FaultPlan.transient_reads(
                heal_after=50, path_glob="data/file_0.pbin", seed=FAULT_SEED
            ),
        )
        reader = SpatialReader(
            faulty,
            strict=False,
            retry=RetryPolicy.immediate(max_attempts=3, seed=FAULT_SEED),
        )
        batch = reader.read_full()
        assert reader.last_report.partitions_skipped == 1
        assert reader.last_report.skipped[0].reason == "transient-exhausted"
        assert len(batch) == reader.last_report.particles_read


class TestExecutorParity:
    """Serial and threaded execution must be observably identical.

    Bytes read, ReadReport, scrub verdicts, and the merged obs trace
    (event name/args sequences, counters, span names — timestamps aside)
    may not depend on which executor ran the per-file work, including
    under injected faults.  Runs under every REPRO_FAULT_SEED of the CI
    matrix.
    """

    EXECUTORS = [ThreadedExecutor(max_workers=2), ThreadedExecutor(max_workers=8)]

    @staticmethod
    def _trace(recorder):
        return (
            [(e.name, dict(e.args)) for e in recorder.events],
            recorder.counters(),
            [s.name for s in recorder.spans],
        )

    def _read(self, dataset, executor, strict, fault_plan=None):
        backend = dataset
        if fault_plan is not None:
            backend = FaultInjectingBackend(dataset, fault_plan)
        reader = Dataset(
            backend,
            strict=strict,
            retry=RetryPolicy.immediate(max_attempts=5, seed=FAULT_SEED),
            executor=executor,
        ).reader()
        batch = reader.read_full()
        return batch, reader.last_report, reader.recorder, backend

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_clean_strict_read_identical(self, dataset, executor):
        want, want_report, want_rec, _ = self._read(dataset, SerialExecutor(), True)
        got, got_report, got_rec, _ = self._read(dataset, executor, True)
        assert got.tobytes() == want.tobytes()
        assert got_report == want_report
        assert self._trace(got_rec) == self._trace(want_rec)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_degraded_read_with_corruption_identical(self, dataset8, executor):
        """A corrupt partition is skipped identically under both executors."""
        victim = SpatialReader(dataset8).metadata.records[2]
        raw = bytearray(dataset8.read_file(victim.file_path))
        raw[HEADER_BYTES + 4] ^= 0x01  # a byte inside the particle records
        dataset8.write_file(victim.file_path, bytes(raw))

        want, want_report, want_rec, _ = self._read(dataset8, SerialExecutor(), False)
        got, got_report, got_rec, _ = self._read(dataset8, executor, False)
        assert want_report.skipped_boxes() == [victim.box_id]
        assert got.tobytes() == want.tobytes()
        assert got_report == want_report
        assert self._trace(got_rec) == self._trace(want_rec)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_degraded_read_under_transient_faults_identical(
        self, dataset8, executor
    ):
        """Healing transients: retry counts and skip lists match exactly.

        Transient fault state is tracked per path, so each file sees the
        same deterministic fault schedule whatever thread reads it.
        """
        plan = FaultPlan.transient_reads(
            heal_after=2, path_glob="data/*", seed=FAULT_SEED
        )
        want, want_report, want_rec, faulty_s = self._read(
            dataset8, SerialExecutor(), False, fault_plan=plan
        )
        got, got_report, got_rec, faulty_t = self._read(
            dataset8, executor, False, fault_plan=plan
        )
        assert faulty_s.fault_counts["transient"] > 0
        assert faulty_t.fault_counts == faulty_s.fault_counts
        assert want_report.retries == faulty_s.fault_counts["transient"]
        assert got_report.retries == want_report.retries
        assert got.tobytes() == want.tobytes()
        assert got_report == want_report
        assert self._trace(got_rec) == self._trace(want_rec)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_exhausted_transients_skip_identically(self, dataset8, executor):
        """Unhealed transients on one file degrade identically."""
        plan = FaultPlan.transient_reads(
            heal_after=50, path_glob="data/file_0.pbin", seed=FAULT_SEED
        )
        want, want_report, want_rec, _ = self._read(
            dataset8, SerialExecutor(), False, fault_plan=plan
        )
        got, got_report, got_rec, _ = self._read(
            dataset8, executor, False, fault_plan=plan
        )
        assert want_report.partitions_skipped == 1
        assert want_report.skipped[0].reason == "transient-exhausted"
        assert got.tobytes() == want.tobytes()
        assert got_report == want_report
        assert self._trace(got_rec) == self._trace(want_rec)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_strict_read_raises_same_error_class(self, dataset8, executor):
        victim = SpatialReader(dataset8).metadata.records[0]
        raw = bytearray(dataset8.read_file(victim.file_path))
        raw[HEADER_BYTES + 4] ^= 0x01  # a byte inside the particle records
        dataset8.write_file(victim.file_path, bytes(raw))
        with pytest.raises(DataChecksumError):
            self._read(dataset8, SerialExecutor(), True)
        with pytest.raises(DataChecksumError):
            self._read(dataset8, executor, True)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=repr)
    def test_scrub_verdicts_identical(self, dataset8, executor):
        """Scrub of a damaged dataset: same issues in the same order."""
        victim = SpatialReader(dataset8).metadata.records[1].file_path
        dataset8.write_file(victim, dataset8.read_file(victim)[:-40])
        dataset8.delete(SpatialReader(dataset8).metadata.records[5].file_path)

        want = Dataset(dataset8, executor=SerialExecutor()).scrub()
        got = Dataset(dataset8, executor=executor).scrub()
        assert got.issues == want.issues
        assert got.files_checked == want.files_checked
        assert got.bytes_verified == want.bytes_verified
        assert got.complete == want.complete


class TestCrashRecoveryMatrix:
    """Crash after K backend writes, for every K in the write schedule.

    nprocs=8 with partition_factor (1, 1, 1) produces exactly 10 backend
    writes: 8 data files, spatial.meta, manifest.json.  Whatever K, the
    interrupted dataset must read as incomplete, and rerunning the write
    over the same storage must converge to a scrub-clean dataset.
    """

    TOTAL_WRITES = 10

    def _run(self, backend, retry=None):
        return write_dataset(
            nprocs=8, partition_factor=(1, 1, 1), backend=backend, retry=retry
        )

    @pytest.mark.parametrize("k", range(TOTAL_WRITES))
    def test_crash_after_k_writes(self, k):
        inner = VirtualBackend()
        faulty = FaultInjectingBackend(
            inner, FaultPlan.crash_after(k, seed=FAULT_SEED)
        )
        with pytest.raises(RankFailedError):
            self._run(faulty)
        assert faulty.fault_counts["crash"] >= 1

        # The torn dataset is always detectable as incomplete...
        assert not dataset_is_complete(inner)
        with pytest.raises(FormatError):
            SpatialReader(inner)

        # ...and rerunning the write over the same storage converges.
        self._run(inner)
        assert dataset_is_complete(inner)
        report = scrub_dataset(inner)
        assert report.ok, [i.code for i in report.issues]
        assert len(SpatialReader(inner).read_full()) == 8 * 500

    def test_fault_free_run_makes_exactly_total_writes(self):
        inner = VirtualBackend()
        faulty = FaultInjectingBackend(inner, FaultPlan())
        self._run(faulty)
        assert faulty.writes_completed == self.TOTAL_WRITES
        assert faulty.faults_injected == 0


class TestWriterFailures:
    def test_rank_with_wrong_dtype_fails_cleanly(self):
        """One rank shipping a mismatched dtype aborts the write."""
        from repro.particles.dtype import MINIMAL_DTYPE, UINTAH_DTYPE
        from repro.particles import uniform_particles

        def batches(rank, patch):
            dtype = UINTAH_DTYPE if rank == 3 else MINIMAL_DTYPE
            return uniform_particles(patch, 10, dtype=dtype, rank=rank)

        with pytest.raises(RankFailedError):
            write_dataset(nprocs=8, batch_fn=batches)

    def test_particles_outside_patch_fail_aligned_write(self):
        """Aligned writes trust patch containment; a particle leaking out of
        the domain is caught by the partition-box invariantcheck on read, or
        by the grid when binning is involved."""
        from repro.particles import ParticleBatch
        from repro.particles.dtype import MINIMAL_DTYPE
        from repro.core import WriterConfig

        def batches(rank, patch):
            arr = np.zeros(4, dtype=MINIMAL_DTYPE)
            arr["position"] = 5.0  # way outside the unit domain
            return ParticleBatch(arr)

        cfg = WriterConfig(partition_factor=(2, 2, 2), align_to_patches=False)
        with pytest.raises(RankFailedError):
            write_dataset(nprocs=8, config=cfg, batch_fn=batches)
