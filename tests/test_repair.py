"""The repair subsystem: self-healing datasets from v3 recovery trailers.

Covers the disaster-recovery contract end to end: full metadata/manifest
reconstruction from data files alone (bit-identical), torn-file truncation
to the longest checksum-verified LOD prefix, quarantine of unrecoverable
pieces, dry-run purity, obs instrumentation, idempotence/convergence under
randomized corruption, crash-recovery for multi-timestep series, and one
damage recipe per issue code of the rule table.
"""

import dataclasses
import json
import os
import random
import re
import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from repro.baselines.reader import read_whole_file
from repro.core import (
    SpatialReader,
    SpatialWriter,
    repair_dataset,
    repair_series,
    scrub_dataset,
)
from repro.core.config import WriterConfig
from repro.core.scrub import FIXES, ISSUES
from repro.core.repair import (
    ACTION_DROP_GENERATION,
    ACTION_DROP_MISSING,
    ACTION_QUARANTINE,
    ACTION_REBUILD_ENTRY,
    ACTION_REBUILD_MANIFEST,
    ACTION_REBUILD_METADATA,
    ACTION_REWRITE_CURRENT,
    ACTION_REWRITE_TRAILER,
    ACTION_TRUNCATE,
    QUARANTINE_DIR,
    _plan,
)
from repro.dataset import Dataset, open_dataset
from repro.domain import Box, PatchDecomposition
from repro.errors import DataFileError, RankFailedError
from repro.format.datafile import (
    HEADER_BYTES,
    TRAILER_FOOTER_BYTES,
    columnar_payload_length,
    extract_recovery_trailer,
)
from repro.format.chunks import FileChunkIndex
from repro.format.generations import CURRENT_PATH, encode_current
from repro.format.manifest import Manifest
from repro.format.metadata import SpatialMetadata, table_crc32
from repro.io import VirtualBackend
from repro.io.faults import FaultInjectingBackend, FaultPlan, FaultSpec
from repro.io.prefix import PrefixBackend
from repro.mpi import run_mpi
from repro.obs.names import EV_REPAIR_ACTION, REPAIR_ACTIONS, REPAIR_PHASES
from repro.particles import uniform_particles
from repro.series.index import SeriesIndex
from repro.series.writer import SeriesWriter

from .conftest import MINIMAL_DTYPE, write_dataset
from .test_chunk_section import with_trailer

#: Same knob the CI fault matrix turns for test_failure_injection.py.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

QUERY = Box([0.05, 0.05, 0.05], [0.6, 0.6, 0.6])


def walk_files(backend, prefix=""):
    """Every file path in a virtual backend (exists() is file-exact there)."""
    out = []
    for name in backend.listdir(prefix):
        path = f"{prefix}/{name}" if prefix else name
        if backend.exists(path):
            out.append(path)
        else:
            out.extend(walk_files(backend, path))
    return sorted(out)


def snapshot(backend):
    return {p: backend.read_file(p) for p in walk_files(backend)}


def data_paths(backend):
    return sorted(f"data/{n}" for n in backend.listdir("data"))


def sorted_ids(batch):
    return np.sort(batch.data, order="id")


class TestDonorMajority:
    """The manifest is lost and the first file's trailer is CRC-valid but
    lies about a dataset fact: the facts most trailers share settle."""

    @pytest.mark.parametrize("lost", [("manifest.json",), ("manifest.json", "spatial.meta")])
    def test_majority_facts_settle_and_the_liar_is_rewritten(self, lost):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
        original = snapshot(backend)
        victim = data_paths(backend)[0]
        raw = backend.read_file(victim)
        trailer = extract_recovery_trailer(raw, victim)
        lying = dataclasses.replace(trailer, lod_scale=trailer.lod_scale + 1)
        backend.write_file(victim, with_trailer(raw, lying.to_bytes()))
        for path in lost:
            backend.delete(path)
        report = scrub_dataset(Dataset(backend))
        assert ("trailer-mismatch", victim) in {(i.code, i.path) for i in report.issues}
        result = Dataset(backend).repair(report)
        assert result.ok and not result.data_loss
        assert Manifest.read(backend).lod_scale == trailer.lod_scale
        assert scrub_dataset(Dataset(backend)).issues == []
        # Every data file and the table as written; the rebuilt manifest
        # differs only in the writer provenance repair cannot know.
        rebuilt = snapshot(backend)
        assert rebuilt.pop("manifest.json") != original.pop("manifest.json")
        assert rebuilt == original


class TestRebuildFromTrailers:
    """Lose BOTH spatial.meta and manifest.json; rebuild from data files."""

    @pytest.fixture
    def damaged(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        reader = SpatialReader(backend)
        before = reader.execute(reader.plan_box_read(QUERY), exact=True)
        orig_meta = backend.read_file("spatial.meta")
        backend.delete("spatial.meta")
        backend.delete("manifest.json")
        return backend, before, orig_meta

    def test_metadata_rebuilt_bit_identical(self, damaged):
        backend, _, orig_meta = damaged
        report = repair_dataset(Dataset(backend))
        assert report.ok and not report.data_loss
        assert report.rebuilt_metadata and report.rebuilt_manifest
        assert backend.read_file("spatial.meta") == orig_meta

    def test_strict_open_and_box_query_identical(self, damaged):
        backend, before, _ = damaged
        repair_dataset(Dataset(backend))
        reader = open_dataset(backend).reader()  # strict open must succeed
        after = reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert np.array_equal(sorted_ids(before), sorted_ids(after))

    def test_scrub_clean_after_repair(self, damaged):
        backend, _, _ = damaged
        repair_dataset(Dataset(backend))
        report = scrub_dataset(Dataset(backend))
        assert report.ok, [i.code for i in report.issues]
        assert report.complete

    def test_exit_code_zero_lossless(self, damaged):
        backend, _, _ = damaged
        assert repair_dataset(Dataset(backend)).exit_code == 0

    def test_auto_repair_open(self, damaged):
        backend, before, _ = damaged
        ds = open_dataset(backend, auto_repair=True)
        reader = ds.reader()
        after = reader.execute(reader.plan_box_read(QUERY), exact=True)
        assert np.array_equal(sorted_ids(before), sorted_ids(after))

    def test_pre_v3_dataset_is_unresolved_not_destroyed(self):
        """No trailers -> repair refuses rather than quarantining the data."""
        from repro.format.datafile import write_data_file

        backend, _, _ = write_dataset(nprocs=4, partition_factor=(2, 1, 1))
        dtype = Dataset(backend).manifest.dtype
        for path in data_paths(backend):  # strip trailers: rewrite as v2
            batch = read_whole_file(backend, path, dtype)
            write_data_file(backend, path, batch)
        backend.delete("spatial.meta")
        backend.delete("manifest.json")
        before = snapshot(backend)
        report = repair_dataset(Dataset(backend))
        assert not report.ok and report.unresolved
        assert snapshot(backend) == before  # nothing was touched

    def test_unsettled_facts_are_not_called_repairable(self):
        """Lost table and no readable trailer: scrub names the reason as
        CORRUPT, the same reason repair leaves unresolved."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(1, 1, 1))
        paths = data_paths(backend)
        assert len(paths) == 8
        backend.delete("spatial.meta")
        for path in paths:  # break each trailer's tail magic
            raw = bytearray(backend.read_file(path))
            raw[-TRAILER_FOOTER_BYTES] ^= 0xFF
            backend.write_file(path, bytes(raw))
        report = scrub_dataset(Dataset(backend))
        assert report.files_checked == 0
        assert report.codes == {"metadata-missing", "facts-unsettled"}
        assert not all(issue.repairable for issue in report.issues)
        (unsettled,) = [i for i in report.issues if i.code == "facts-unsettled"]
        assert unsettled.path == "spatial.meta" and not unsettled.repairable
        assert "damage needing salvage" in report.summary_lines()[-1]
        result = repair_dataset(Dataset(backend), dry_run=True)
        assert not result.actions
        assert result.unresolved == [unsettled.detail]


class TestTornFileTruncation:
    @pytest.fixture
    def torn(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        ds = Dataset(backend)
        itemsize = ds.manifest.dtype.itemsize
        total = ds.total_particles
        victim = data_paths(backend)[0]
        orig_count = next(
            r for r in ds.metadata if r.file_path == victim
        ).particle_count
        raw = backend.read_file(victim)
        # Tear mid-payload, past the first LOD boundary (32) but short of
        # the second (96): the salvageable prefix is exactly 32 particles.
        backend.write_file(victim, raw[: HEADER_BYTES + 70 * itemsize])
        return backend, victim, orig_count, total

    def test_truncated_to_longest_valid_prefix(self, torn):
        backend, victim, orig_count, _ = torn
        report = repair_dataset(Dataset(backend))
        assert report.ok
        truncs = [a for a in report.actions if a.kind == ACTION_TRUNCATE]
        assert [a.path for a in truncs] == [victim]
        assert truncs[0].particles_salvaged == 32
        assert report.particles_lost == orig_count - 32

    def test_strict_reads_succeed_after_truncation(self, torn):
        backend, victim, orig_count, total = torn
        repair_dataset(Dataset(backend))
        ds = Dataset.open(backend)  # strict open
        assert scrub_dataset(ds).ok
        full = ds.reader().read_full()
        assert len(full) == total - (orig_count - 32)
        rec = next(r for r in ds.metadata if r.file_path == victim)
        assert rec.particle_count == 32

    def test_truncation_updates_manifest_entry(self, torn):
        backend, victim, _, _ = torn
        repair_dataset(Dataset(backend))
        entry = Dataset(backend).manifest.checksums[victim]
        assert entry["prefixes"][-1][0] == 32

    def test_torn_below_first_boundary_quarantines(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        ds = Dataset(backend)
        itemsize = ds.manifest.dtype.itemsize
        victim = data_paths(backend)[0]
        orig_count = next(
            r for r in ds.metadata if r.file_path == victim
        ).particle_count
        raw = backend.read_file(victim)
        backend.write_file(victim, raw[: HEADER_BYTES + 10 * itemsize])
        report = repair_dataset(Dataset(backend))
        assert report.ok and report.files_quarantined == 1
        assert report.particles_lost == orig_count
        assert backend.exists(f"{QUARANTINE_DIR}/{victim}")
        assert not backend.exists(victim)
        assert scrub_dataset(Dataset(backend)).ok


class TestQuarantine:
    def test_corrupt_payload_quarantined_not_deleted(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        victim = data_paths(backend)[1]
        raw = bytearray(backend.read_file(victim))
        raw[HEADER_BYTES + 4] ^= 0x01
        backend.write_file(victim, bytes(raw))
        report = repair_dataset(Dataset(backend))
        assert report.ok and report.data_loss and report.exit_code == 1
        assert backend.read_file(f"{QUARANTINE_DIR}/{victim}") == bytes(raw)
        assert scrub_dataset(Dataset(backend)).ok

    def test_orphan_quarantine_is_lossless(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        donor = data_paths(backend)[0]
        backend.write_file("data/file_99.pbin", backend.read_file(donor))
        report = repair_dataset(Dataset(backend))
        assert report.ok and not report.data_loss
        assert report.files_quarantined == 1
        assert report.exit_code == 0
        assert scrub_dataset(Dataset(backend)).ok


class TestTrailerRepair:
    def test_damaged_trailer_rewritten_losslessly(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        victim = data_paths(backend)[0]
        raw = backend.read_file(victim)
        orig = raw
        backend.write_file(victim, raw[:-TRAILER_FOOTER_BYTES])  # clip tail
        report = repair_dataset(Dataset(backend))
        assert report.ok and not report.data_loss
        kinds = [a.kind for a in report.actions]
        assert ACTION_REWRITE_TRAILER in kinds
        # The rewrite regenerates the identical trailer from committed state.
        assert backend.read_file(victim) == orig
        assert scrub_dataset(Dataset(backend)).ok


class TestDryRun:
    def test_dry_run_writes_nothing(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        backend.delete("spatial.meta")
        victim = data_paths(backend)[0]
        backend.write_file(victim, backend.read_file(victim)[:HEADER_BYTES + 50])
        before = snapshot(backend)
        writes_before = len(backend.ops_of_kind("write"))
        deletes_before = len(backend.ops_of_kind("delete"))
        report = repair_dataset(Dataset(backend), dry_run=True)
        assert report.dry_run and report.actions
        assert not any(a.executed for a in report.actions)
        assert report.exit_code == 1
        assert len(backend.ops_of_kind("write")) == writes_before
        assert len(backend.ops_of_kind("delete")) == deletes_before
        assert snapshot(backend) == before

    def test_dry_run_on_clean_dataset_exits_zero(self):
        backend, _, _ = write_dataset(nprocs=4, partition_factor=(2, 1, 1))
        report = repair_dataset(Dataset(backend), dry_run=True)
        assert report.clean and report.exit_code == 0


class TestObservability:
    def test_spans_and_events_recorded(self):
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        backend.delete("spatial.meta")
        ds = Dataset(backend)
        repair_dataset(ds)
        span_names = {s.name for s in ds.recorder.spans}
        for phase in REPAIR_PHASES:
            assert phase in span_names, phase
        events = ds.recorder.events_named(EV_REPAIR_ACTION)
        assert events and events[0].args["kind"] == ACTION_REBUILD_METADATA
        assert ds.recorder.total(REPAIR_ACTIONS) == len(events)

    def test_lost_table_is_one_rebuild(self):
        """Losing only ``spatial.meta`` leaves every manifest entry right
        (chunk sections live in the table), so the one action is the table
        rebuild: no per-file entry rebuild the manifest never receives."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        manifest_before = backend.read_file("manifest.json")
        backend.delete("spatial.meta")
        ds = Dataset(backend)
        report = repair_dataset(ds)
        assert [(a.kind, a.executed) for a in report.actions] == [
            (ACTION_REBUILD_METADATA, True)
        ]
        assert report.rebuilt_metadata and not report.rebuilt_manifest
        events = ds.recorder.events_named(EV_REPAIR_ACTION)
        assert [e.args["kind"] for e in events] == [ACTION_REBUILD_METADATA]
        assert backend.read_file("manifest.json") == manifest_before
        assert scrub_dataset(Dataset(backend)).ok


def _corrupt_randomly(backend, rng):
    """Apply 1-3 seeded corruption primitives; returns their names."""
    primitives = []

    def tear_file():
        victim = rng.choice(data_paths(backend))
        raw = backend.read_file(victim)
        cut = rng.randrange(HEADER_BYTES, len(raw))
        backend.write_file(victim, raw[:cut])
        return f"tear:{victim}@{cut}"

    def flip_payload_bit():
        victim = rng.choice(data_paths(backend))
        raw = bytearray(backend.read_file(victim))
        raw[HEADER_BYTES + rng.randrange(0, 64)] ^= 1 << rng.randrange(8)
        backend.write_file(victim, bytes(raw))
        return f"bitflip:{victim}"

    def drop_metadata():
        backend.delete("spatial.meta", missing_ok=True)
        return "drop:spatial.meta"

    def drop_manifest():
        backend.delete("manifest.json", missing_ok=True)
        return "drop:manifest.json"

    def corrupt_metadata():
        if backend.exists("spatial.meta"):
            raw = bytearray(backend.read_file("spatial.meta"))
            raw[rng.randrange(16, len(raw))] ^= 0xFF
            backend.write_file("spatial.meta", bytes(raw))
        return "corrupt:spatial.meta"

    def delete_data_file():
        backend.delete(rng.choice(data_paths(backend)))
        return "drop:data"

    def add_orphan():
        donor = rng.choice(data_paths(backend))
        backend.write_file("data/file_77.pbin", backend.read_file(donor))
        return "orphan"

    choices = [
        tear_file, flip_payload_bit, drop_metadata, drop_manifest,
        corrupt_metadata, delete_data_file, add_orphan,
    ]
    for _ in range(rng.randint(1, 3)):
        primitives.append(rng.choice(choices)())
    return primitives


class TestRepairProperties:
    """Idempotence and convergence under randomized seeded corruption."""

    @pytest.mark.parametrize("case", range(10))
    def test_repair_converges_and_is_idempotent(self, case):
        rng = random.Random((FAULT_SEED << 8) | case)
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        applied = _corrupt_randomly(backend, rng)

        before = snapshot(backend)
        pre = scrub_dataset(Dataset(backend))
        first = repair_dataset(Dataset(backend), pre)

        if first.unresolved:
            # Some corruption combinations are legitimately unrecoverable
            # (e.g. every trailer-bearing data file destroyed along with the
            # metadata).  The property then is a *stable, safe refusal*:
            # nothing written, and a second attempt reports the same state.
            assert snapshot(backend) == before, applied
            second = repair_dataset(Dataset(backend))
            assert second.unresolved == first.unresolved, applied
            assert snapshot(backend) == before, applied
            return

        assert first.ok, (applied, first.issues_remaining)

        # Loss accounting: scrub's promise holds, and what repair bills is
        # what the committed dataset lost.
        if all(i.repairable for i in pre.issues):
            assert first.particles_lost == 0, applied
        if pre.survey.manifest is not None or pre.survey.metadata is not None:
            total = Dataset.open(backend).manifest.total_particles
            assert first.particles_lost == 4000 - total, applied

        # Convergence: the dataset verifies clean and opens strictly.
        verify = scrub_dataset(Dataset(backend))
        assert verify.ok, (applied, [i.code for i in verify.issues])
        ds = Dataset.open(backend)
        if ds.num_files:
            ds.reader().read_full()

        # Idempotence: a second repair is a no-op, byte for byte.
        after_first = snapshot(backend)
        second = repair_dataset(Dataset(backend))
        assert second.clean and not second.actions
        assert second.exit_code == 0
        assert snapshot(backend) == after_first, applied


DOMAIN = Box([0, 0, 0], [1, 1, 1])


def _write_step(sw, decomp, nprocs, backend, step):
    run_mpi(
        nprocs,
        lambda c: sw.write_step(
            c,
            step,
            float(step),
            uniform_particles(
                decomp.patch_of_rank(c.rank), 200, seed=step, rank=c.rank
            ),
            decomp,
            backend,
        ),
    )


class TestSeriesCrashRecovery:
    """FaultPlan.crash_after mid-series: committed steps are restored, the
    torn uncommitted step is quarantined whole."""

    NPROCS = 4
    #: One step = 2 data files + spatial.meta + manifest.json + series.json.
    WRITES_PER_STEP = 5

    @pytest.fixture
    def crashed_series(self):
        decomp = PatchDecomposition.for_nprocs(DOMAIN, self.NPROCS)
        sw = SeriesWriter(WriterConfig(partition_factor=(2, 1, 1)))
        inner = VirtualBackend()
        _write_step(sw, decomp, self.NPROCS, inner, 0)
        _write_step(sw, decomp, self.NPROCS, inner, 1)
        # Crash somewhere inside the step's own writes (2 data files,
        # spatial.meta, manifest.json) but always BEFORE the series.json
        # append — a crash that tears the index itself is the separate
        # test_corrupt_index_is_unresolved scenario.
        crash_at = (FAULT_SEED % (self.WRITES_PER_STEP - 2)) + 1
        faulty = FaultInjectingBackend(
            inner, FaultPlan.crash_after(crash_at, seed=FAULT_SEED)
        )
        with pytest.raises(RankFailedError):
            _write_step(sw, decomp, self.NPROCS, faulty, 2)
        assert faulty.fault_counts["crash"] >= 1
        return inner

    def test_torn_step_quarantined_committed_steps_clean(self, crashed_series):
        backend = crashed_series
        report = repair_series(Dataset(backend))
        assert report.ok
        assert report.quarantined_steps == ["t000002"]
        assert report.exit_code == 1  # damage was found
        assert not backend.exists("t000002/manifest.json")
        index = SeriesIndex.read(backend)
        assert [s.step for s in index] == [0, 1]
        for info in index:
            step_ds = Dataset(PrefixBackend(backend, info.prefix))
            assert scrub_dataset(step_ds).ok
            assert len(step_ds.reader().read_full()) == self.NPROCS * 200
        # Quarantined bytes survive for forensics.
        assert walk_files(backend, f"{QUARANTINE_DIR}/t000002")

    def test_second_series_repair_is_clean(self, crashed_series):
        backend = crashed_series
        repair_series(Dataset(backend))
        again = repair_series(Dataset(backend))
        assert again.clean and again.exit_code == 0

    def test_series_dry_run_touches_nothing(self, crashed_series):
        backend = crashed_series
        before = snapshot(backend)
        report = repair_series(Dataset(backend), dry_run=True)
        assert report.quarantined_steps == ["t000002"]
        assert report.exit_code == 1
        assert snapshot(backend) == before

    def test_rewriting_the_step_after_repair_converges(self, crashed_series):
        backend = crashed_series
        repair_series(Dataset(backend))
        decomp = PatchDecomposition.for_nprocs(DOMAIN, self.NPROCS)
        sw = SeriesWriter(WriterConfig(partition_factor=(2, 1, 1)))
        _write_step(sw, decomp, self.NPROCS, backend, 2)
        assert [s.step for s in SeriesIndex.read(backend)] == [0, 1, 2]
        assert repair_series(Dataset(backend)).clean

    def test_corrupt_index_is_unresolved(self):
        decomp = PatchDecomposition.for_nprocs(DOMAIN, self.NPROCS)
        sw = SeriesWriter(WriterConfig(partition_factor=(2, 1, 1)))
        backend = VirtualBackend()
        _write_step(sw, decomp, self.NPROCS, backend, 0)
        backend.write_file("series.json", b"{broken")
        report = repair_series(Dataset(backend))
        assert not report.ok and report.unresolved
        assert report.exit_code == 1


class TestScrubRepairWiring:
    def test_scrub_hint_names_repair(self):
        backend, _, _ = write_dataset(nprocs=4, partition_factor=(2, 1, 1))
        backend.delete("spatial.meta")
        report = scrub_dataset(Dataset(backend))
        assert all(i.repairable for i in report.issues)
        assert any("repro repair" in line for line in report.summary_lines())

    def test_lossy_damage_hint_differs(self):
        backend, _, _ = write_dataset(nprocs=4, partition_factor=(2, 1, 1))
        victim = data_paths(backend)[0]
        backend.write_file(victim, backend.read_file(victim)[:HEADER_BYTES + 3])
        report = scrub_dataset(Dataset(backend))
        assert not all(i.repairable for i in report.issues)
        joined = "\n".join(report.summary_lines())
        assert "repro repair" in joined and "salvage" in joined

    def test_repairable_issues_resolve_without_loss(self):
        """The planner honours the scrub's repairable tags: a dataset whose
        issues are all tagged converges with zero particles lost."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        backend.delete("manifest.json")
        scrub = scrub_dataset(Dataset(backend))
        assert scrub.issues and all(i.repairable for i in scrub.issues)
        report = repair_dataset(Dataset(backend), scrub)
        assert report.ok and not report.data_loss
        kinds = {a.kind for a in report.actions}
        assert ACTION_REBUILD_MANIFEST in kinds
        assert ACTION_QUARANTINE not in kinds and ACTION_TRUNCATE not in kinds

    def test_clean_scrub_reads_each_data_file_once(self):
        """Scrub's one inspection per file: a single whole-file read."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        mark = len(backend.ops_of_kind("read"))
        assert scrub_dataset(Dataset(backend)).ok
        reads = Counter(op.path for op in backend.ops_of_kind("read")[mark:])
        assert {p: reads[p] for p in data_paths(backend)} == dict.fromkeys(
            data_paths(backend), 1
        )

    def test_planning_reads_nothing(self):
        """Given a scrub report, planning works from the scrub's survey:
        a dry run opens and reads no file at all."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        victim = data_paths(backend)[1]
        raw = bytearray(backend.read_file(victim))
        raw[HEADER_BYTES + 4] ^= 0x01
        backend.write_file(victim, bytes(raw))
        scrub = scrub_dataset(Dataset(backend))
        mark = len(backend.ops)
        report = repair_dataset(Dataset(backend), scrub, dry_run=True)
        assert [a.path for a in report.actions if a.kind == ACTION_QUARANTINE] == [victim]
        assert not [op for op in backend.ops[mark:] if op.kind in ("read", "open")]

    def test_trailer_repair_reads_the_file_three_times(self):
        """Scrub, the rewrite and the verification scrub: one read each."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        victim = data_paths(backend)[0]
        raw = bytearray(backend.read_file(victim))
        raw[-30] ^= 0x01
        backend.write_file(victim, bytes(raw))
        mark = len(backend.ops)
        assert Dataset(backend).repair().exit_code == 0
        reads = [op for op in backend.ops[mark:] if op.kind == "read" and op.path == victim]
        assert len(reads) <= 3

    def test_lost_manifest_keeps_per_file_checks(self):
        """Without the manifest, scrub still checks every file the table
        names: a torn one is not promised as lossless."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        backend.delete("manifest.json")
        victim = data_paths(backend)[0]
        backend.write_file(victim, backend.read_file(victim)[: HEADER_BYTES + 4000])
        report = scrub_dataset(Dataset(backend))
        assert report.files_checked == 2
        torn = [i for i in report.issues if i.code == "data-truncated"]
        assert [i.path for i in torn] == [victim] and not torn[0].repairable
        assert "salvage" in report.summary_lines()[-1]

    @pytest.mark.parametrize("damage", ["delete", "tear"])
    def test_lost_table_bills_committed_files(self, damage):
        """With spatial.meta lost, the manifest still names every committed
        file: losing one is billed its committed count, not 0."""
        backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 1))
        backend.delete("spatial.meta")
        victim = data_paths(backend)[0]
        if damage == "delete":
            backend.delete(victim)
        else:
            backend.write_file(victim, backend.read_file(victim)[: HEADER_BYTES + 4000])
        report = repair_dataset(Dataset(backend))
        assert report.ok
        assert report.particles_lost == 2000
        assert report.exit_code == 1
        assert Dataset.open(backend).manifest.total_particles == 2000

    def test_every_emitted_code_has_a_table_row(self):
        """Each code string scrub can emit is a row of the issue table, and
        every row is one.  A code is emitted from a code position: the code
        argument of ``report.add``/``flag``/``FileState.fail``, a ``code=``
        keyword, or what is assigned to a ``.code`` or a name passed there."""
        import ast
        import inspect

        from repro.core import scrub

        tree = ast.parse(inspect.getsource(scrub))
        positions = {"add": 1, "flag": 1, "fail": 0}
        exprs = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in positions and len(node.args) > positions[name]:
                    exprs.append(node.args[positions[name]])
                exprs += [k.value for k in node.keywords if k.arg == "code"]
        names = {"code"} | {e.id for e in exprs if isinstance(e, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = list(zip(target.elts, node.value.elts))
                    exprs += [
                        v for t, v in pairs if getattr(t, "id", getattr(t, "attr", 0)) in names
                    ]

        def values(expr):
            if isinstance(expr, ast.IfExp):
                return values(expr.body) | values(expr.orelse)
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                return {expr.value}
            return set()

        emitted = set().union(*map(values, exprs))
        assert emitted == set(scrub.ISSUES)
        assert {kind.fix for kind in scrub.ISSUES.values()} <= set(scrub.FIXES)


# -- one damage recipe per issue code ----------------------------------------------

#: The action kinds each fix of the rule table may plan: a salvage whose
#: prefix does not verify, or a trailer that cannot place its file,
#: quarantines it; a dropped generation quarantines the files only it held
#: and removes a generation-0 dataset's stray CURRENT.  A table rebuilt from
#: the trailers leaves every surviving manifest entry as it is.
FIX_KINDS = {
    "leave-unresolved": set(),
    "drop-record": {ACTION_DROP_MISSING},
    "quarantine": {ACTION_QUARANTINE},
    "salvage": {ACTION_TRUNCATE, ACTION_QUARANTINE},
    "adopt-trailer-record": {ACTION_REBUILD_ENTRY, ACTION_QUARANTINE},
    "entry": {ACTION_REBUILD_ENTRY},
    "trailer": {ACTION_REWRITE_TRAILER},
    "rebuild": {ACTION_REBUILD_METADATA, ACTION_REBUILD_MANIFEST},
    "pointer": {ACTION_REWRITE_CURRENT},
    "drop-generation": {ACTION_DROP_GENERATION, ACTION_QUARANTINE, ACTION_REWRITE_CURRENT},
    "delete": {ACTION_DROP_GENERATION},
}

#: Where a fix may plan several kinds, the ones each recipe below must get.
PLANNED = {
    "salvage": {ACTION_TRUNCATE},
    "adopt-trailer-record": {ACTION_REBUILD_ENTRY},
    "rebuild": {ACTION_REBUILD_METADATA, ACTION_REBUILD_MANIFEST},
    "drop-generation": {ACTION_DROP_GENERATION},
}

VICTIM = "data/file_0.pbin"


def clone(backend):
    out = VirtualBackend()
    out._files = dict(backend._files)
    return out


def _append(backend, decomp, seed):
    writer = SpatialWriter(WriterConfig(partition_factor=(2, 2, 1)))
    run_mpi(4, lambda comm: writer.append(
        comm, uniform_particles(
            decomp.patch_of_rank(comm.rank), 60, dtype=MINIMAL_DTYPE, seed=seed, rank=comm.rank
        ),
        decomp, backend,
    ))


@pytest.fixture(scope="module")
def bases():
    row = write_dataset(nprocs=8, partition_factor=(2, 2, 1))[0]
    columnar = write_dataset(nprocs=8, config=WriterConfig(
        partition_factor=(2, 2, 1), layout="columnar", codec="shuffle-zlib"
    ))[0]
    chained, decomp, _ = write_dataset(nprocs=4, partition_factor=(2, 2, 1), particles_per_rank=120)
    _append(chained, decomp, seed=101)
    return {"row": row, "columnar": columnar, "chained": chained}


def edit_json(backend, path, edit):
    doc = json.loads(backend.read_file(path))
    edit(doc)
    backend.write_file(path, json.dumps(doc).encode())


def edit_table(backend, edit):
    """A CRC-valid table edit: ``edit`` the records, re-commit the manifest's CRC."""
    meta = SpatialMetadata.read_whole(backend)
    blob = SpatialMetadata(edit(list(meta.records)), attr_names=meta.attr_names).to_bytes()
    backend.write_file("spatial.meta", blob)
    edit_json(backend, "manifest.json", lambda d: d.update(spatial_meta_crc32=table_crc32(blob)))


def edit_bytes(backend, path, edit):
    raw = bytearray(backend.read_file(path))
    edit(raw)
    backend.write_file(path, bytes(raw))


def unreadable(backend, glob):
    plan = FaultPlan((FaultSpec("permanent", op="read", path_glob=glob),))
    return FaultInjectingBackend(backend, plan)


def _lie_about_chunks(records):
    index = FileChunkIndex.unpack(records[0].section)
    index.hi = index.hi + 0.25
    records[0] = dataclasses.replace(records[0], section=index.to_section())
    return records


def _miscount(records):
    records[0] = dataclasses.replace(records[0], particle_count=records[0].particle_count - 1)
    return records


def _lying_trailer(b):
    raw = b.read_file(VICTIM)
    trailer = extract_recovery_trailer(raw, VICTIM)
    b.write_file(VICTIM, with_trailer(raw, dataclasses.replace(trailer, lod_scale=3).to_bytes()))


def _break_trailers(b):
    for path in data_paths(b):
        edit_bytes(b, path, lambda raw: raw.__setitem__(-TRAILER_FOOTER_BYTES, 0))


def _break_every_trailer(b):
    b.delete("spatial.meta")
    _break_trailers(b)


def _lose_the_chain(b):
    """No generation verifies (every table is gone) and CURRENT is corrupt:
    repair targets the newest generation present, never committed or not."""
    for name in b.listdir(""):
        if name.startswith("spatial"):
            b.delete(name)
    b.write_file(CURRENT_PATH, b"not a pointer")


def _claim_one_box_twice(b):
    """Two files' CRC-valid trailers place them in the same box."""
    _lose_the_chain(b)
    first, second = data_paths(b)[:2]
    box = extract_recovery_trailer(b.read_file(first), first).record.box_id
    raw = b.read_file(second)
    trailer = extract_recovery_trailer(raw, second)
    lie = dataclasses.replace(trailer, record=dataclasses.replace(trailer.record, box_id=box))
    b.write_file(second, with_trailer(raw, lie.to_bytes()))


def _dtype_mismatch(b):
    def edit(raw):
        count = struct.unpack_from("<Q", raw, 16)[0]
        itemsize = struct.unpack_from("<I", raw, 12)[0]
        struct.pack_into("<I", raw, 12, itemsize + 8)
        end = HEADER_BYTES + count * itemsize
        struct.pack_into("<I", raw, end + 4, zlib.crc32(raw[:end]))  # re-commit the footer
    edit_bytes(b, VICTIM, edit)


def _damage_a_late_segment(b):
    rec = next(r for r in SpatialMetadata.read_whole(b).records if r.file_path == VICTIM)
    off, length, _crc = FileChunkIndex.unpack(rec.section).segments[-1, 0]
    pos = HEADER_BYTES + int(off) + int(length) // 2
    edit_bytes(b, VICTIM, lambda raw: raw.__setitem__(pos, raw[pos] ^ 0xFF))


def _flip_the_footer(b):
    rec = next(r for r in SpatialMetadata.read_whole(b).records if r.file_path == VICTIM)
    pos = HEADER_BYTES + columnar_payload_length(FileChunkIndex.unpack(rec.section)) + 5
    edit_bytes(b, VICTIM, lambda raw: raw.__setitem__(pos, raw[pos] ^ 0xFF))


def _copy_manifest_as(b, gen, **fields):
    doc = json.loads(b.read_file("manifest.gen-1.json"))
    doc.update(fields)
    b.write_file(f"manifest.gen-{gen}.json", json.dumps(doc).encode())


#: code -> (base dataset, damage); a damage returning a backend is scrubbed
#: and repaired through it (a read fault), then verified without it.
RECIPES = {
    "current-corrupt": ("chained", lambda b: b.write_file(CURRENT_PATH, b"not a pointer")),
    "current-missing": ("chained", lambda b: b.delete(CURRENT_PATH)),
    "current-dangling": ("chained", lambda b: b.write_file(CURRENT_PATH, encode_current(9))),
    "chain-unresolvable": ("row", lambda b: (
        b.write_file(CURRENT_PATH, b"not a pointer"), b.write_file("manifest.json", b"{")
    )),
    "facts-unsettled": ("row", _break_every_trailer),
    "generation-damaged": ("chained", lambda b: b.write_file("manifest.gen-2.json", b"{")),
    "generation-mismatch": ("chained", lambda b: _copy_manifest_as(b, 2)),
    "generation-ahead": ("chained", lambda b: _copy_manifest_as(b, 2, generation=2, parent=1)),
    "generation-residue": ("chained", lambda b: b.write_file("spatial.gen-5.meta", b"residue")),
    "manifest-missing": ("row", lambda b: b.delete("manifest.json")),
    "manifest-corrupt": ("row", lambda b: b.write_file("manifest.json", b"{broken")),
    "metadata-missing": ("row", lambda b: b.delete("spatial.meta")),
    "metadata-unreadable": ("row", lambda b: unreadable(b, "spatial.meta")),
    "metadata-checksum": ("row", lambda b: edit_bytes(
        b, "spatial.meta", lambda raw: raw.__setitem__(40, raw[40] ^ 0x10)
    )),
    "metadata-corrupt": ("row", lambda b: b.write_file("spatial.meta", b"junk")),
    "file-count-mismatch": ("row", lambda b: edit_json(
        b, "manifest.json", lambda d: d.update(num_files=d["num_files"] + 1)
    )),
    "particle-count-mismatch": ("row", lambda b: edit_json(
        b, "manifest.json", lambda d: d.update(total_particles=d["total_particles"] + 1)
    )),
    "metadata-crc-mismatch": ("row", lambda b: edit_json(
        b, "manifest.json", lambda d: d.update(spatial_meta_crc32=d["spatial_meta_crc32"] ^ 1)
    )),
    "data-missing": ("row", lambda b: b.delete(VICTIM)),
    "data-unreadable": ("row", lambda b: unreadable(b, VICTIM)),
    "data-header": ("row", lambda b: b.write_file(VICTIM, b"\xde\xad\xbe\xef" * 32)),
    "data-corrupt": ("row", lambda b: edit_bytes(
        b, VICTIM, lambda raw: struct.pack_into("<I", raw, 8, 99)
    )),
    "dtype-mismatch": ("row", _dtype_mismatch),
    "data-truncated": ("row", lambda b: b.write_file(
        VICTIM, b.read_file(VICTIM)[: HEADER_BYTES + 70 * 32]
    )),
    "data-checksum": ("row", lambda b: edit_bytes(
        b, VICTIM, lambda raw: raw.__setitem__(HEADER_BYTES + 4, raw[HEADER_BYTES + 4] ^ 1)
    )),
    "segment-checksum": ("columnar", _damage_a_late_segment),
    "data-footer": ("columnar", _flip_the_footer),
    "count-mismatch": ("row", lambda b: edit_table(b, _miscount)),
    "manifest-checksum-mismatch": ("row", lambda b: edit_json(
        b, "manifest.json", lambda d: d["checksums"][VICTIM].update(
            payload_crc32=d["checksums"][VICTIM]["payload_crc32"] ^ 1
        )
    )),
    "prefix-checksum-mismatch": ("row", lambda b: edit_json(
        b, "manifest.json", lambda d: d["checksums"][VICTIM]["prefixes"][0].__setitem__(1, 0)
    )),
    "chunk-index-mismatch": ("row", lambda b: edit_table(b, _lie_about_chunks)),
    "trailer-damaged": ("row", lambda b: b.write_file(
        VICTIM, b.read_file(VICTIM)[:-TRAILER_FOOTER_BYTES]
    )),
    "trailer-mismatch": ("row", _lying_trailer),
    "data-orphan": ("row", lambda b: b.write_file("data/file_99.pbin", b.read_file(VICTIM))),
    "data-unrecorded": ("row", lambda b: edit_table(b, lambda records: records[1:])),
}


class TestDamageMatrix:
    """Every issue code, from one damage recipe: scrub names it with its
    row's repairable flag, repair plans the row's fix (a dry run writes
    nothing) and every planned action traces back to an issue whose row
    names it, and a second scrub finds only what the row leaves unresolved."""

    def test_every_code_has_a_recipe(self):
        assert set(RECIPES) == set(ISSUES)
        assert set(FIX_KINDS) == set(FIXES)

    @pytest.mark.parametrize("base", ["row", "columnar", "chained"])
    def test_a_clean_dataset_plans_nothing(self, bases, base):
        report = scrub_dataset(Dataset(clone(bases[base])))
        assert report.ok
        plan = _plan(report.survey, report.issues)
        assert (plan.actions, plan.unresolved, plan.delete_paths, plan.rewrite) == ([], [], [], {})
        assert plan.meta_blob is None and plan.manifest is None

    @pytest.mark.parametrize("base,damage", [
        ("row", _break_every_trailer),
        ("chained", lambda b: (_lose_the_chain(b), _break_trailers(b))),
        ("chained", _claim_one_box_twice),
    ], ids=["row-facts-unsettled", "chained-facts-unsettled", "chained-inconsistent-table"])
    def test_a_refused_repair_writes_nothing(self, bases, base, damage):
        """A plan refused whole (the facts do not settle, or the table it
        would write does not validate) writes nothing, CURRENT included."""
        inner = clone(bases[base])
        damage(inner)
        damaged = snapshot(inner)
        mark = (len(inner.ops_of_kind("write")), len(inner.ops_of_kind("delete")))
        result = repair_dataset(Dataset(inner))
        assert result.unresolved and not result.actions and result.exit_code == 1
        assert (len(inner.ops_of_kind("write")), len(inner.ops_of_kind("delete"))) == mark
        assert snapshot(inner) == damaged

    def test_a_miscounted_damaged_file_names_its_own_damage(self, bases):
        """A header contradicting the table does not hide the payload's own
        verdict: its row, not the count's fallback, quarantines the file."""
        inner = clone(bases["row"])
        edit_bytes(inner, VICTIM, lambda raw: struct.pack_into("<Q", raw, 16, 5))
        report = scrub_dataset(Dataset(inner))
        assert report.codes == {"count-mismatch", "data-checksum"}
        plan = _plan(report.survey, report.issues)
        assert [(a.kind, a.path, a.fix) for a in plan.actions if a.path == VICTIM] == [
            (ACTION_QUARANTINE, VICTIM, "quarantine")
        ]

    def test_an_unreadable_orphan_is_unresolved_not_repairable(self, bases):
        """Quarantine must read a file to move it: scrub does not promise
        what repair cannot do."""
        inner = clone(bases["row"])
        inner.write_file("data/file_99.pbin", inner.read_file(VICTIM))
        backend = unreadable(inner, "data/file_99.pbin")
        report = scrub_dataset(Dataset(backend))
        assert [(i.code, i.repairable) for i in report.issues] == [("data-unreadable", False)]
        damaged = snapshot(inner)
        result = repair_dataset(Dataset(backend), report)
        assert result.unresolved and not result.actions and result.exit_code == 1
        assert snapshot(inner) == damaged

    @pytest.mark.parametrize("code", sorted(RECIPES))
    def test_code(self, bases, code):
        base, damage = RECIPES[code]
        inner = clone(bases[base])
        backend = damage(inner)
        backend = backend if isinstance(backend, FaultInjectingBackend) else inner
        fix = ISSUES[code].fix

        report = scrub_dataset(Dataset(backend))
        found = [i for i in report.issues if i.code == code]
        assert found, report.summary_lines()
        assert {i.repairable for i in found} == {ISSUES[code].repairable}

        mark = (len(inner.ops_of_kind("write")), len(inner.ops_of_kind("delete")))
        plan = repair_dataset(Dataset(backend), report, dry_run=True)
        assert (len(inner.ops_of_kind("write")), len(inner.ops_of_kind("delete"))) == mark
        named = {ISSUES[i.code].fix for i in report.issues}
        for action in plan.actions:
            assert action.fix in named | {"rebuild"}, action.describe()
            assert action.kind in FIX_KINDS[action.fix], action.describe()
        if fix == "leave-unresolved":
            assert plan.unresolved, plan.summary_lines()
        else:
            kinds = {a.kind for a in plan.actions if a.fix == fix}
            assert PLANNED.get(fix, FIX_KINDS[fix]) & kinds, (fix, plan.summary_lines())

        damaged = snapshot(inner)
        result = repair_dataset(Dataset(backend))
        after = scrub_dataset(Dataset(inner))
        if fix == "leave-unresolved":  # repair refuses and touches nothing
            assert not result.ok and result.exit_code == 1
            assert after.codes <= report.codes and snapshot(inner) == damaged
            return
        assert after.ok, (code, after.summary_lines(), result.summary_lines())
        if backend is inner:  # a read fault outlives the repair
            assert result.ok and result.exit_code == int(result.data_loss)


def _full(backend):
    return sorted_ids(Dataset.open(backend).reader().read_full())


class TestManifestEntryFindings:
    """A manifest missing a file's checksum entry, or whose entry names the
    wrong codec, is a repairable finding: strict columnar reads depend on
    the entry, and fail until repair recomputes it."""

    @pytest.mark.parametrize("base,edit", [
        ("columnar", lambda e: e.pop(VICTIM)),
        ("columnar", lambda e: e[VICTIM].update(codec="none")),
        ("row", lambda e: e.pop(VICTIM)),
    ], ids=["columnar-missing", "columnar-codec", "row-missing"])
    def test_scrub_flags_and_repair_restores_reads(self, bases, base, edit):
        backend = clone(bases[base])
        before = _full(backend)
        edit_json(backend, "manifest.json", lambda d: edit(d["checksums"]))
        if base == "columnar":
            with pytest.raises(DataFileError):
                _full(backend)
        report = scrub_dataset(Dataset(backend))
        assert report.codes == {"manifest-checksum-mismatch"}
        assert all(i.repairable and i.path == VICTIM for i in report.issues)
        result = repair_dataset(Dataset(backend), report)
        assert result.ok and result.exit_code == 0
        assert scrub_dataset(Dataset(backend)).ok
        assert np.array_equal(_full(backend), before)

    def test_a_version_1_manifest_commits_no_entries(self, bases):
        backend = clone(bases["row"])
        edit_json(backend, "manifest.json", lambda d: d.update(
            version=1, checksums={}, spatial_meta_crc32=None
        ))
        assert scrub_dataset(Dataset(backend)).ok
