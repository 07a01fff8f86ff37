"""The repair subsystem: self-healing datasets from v3 recovery trailers.

Covers the disaster-recovery contract end to end: full metadata/manifest
reconstruction from data files alone (bit-identical), torn-file truncation
to the longest checksum-verified LOD prefix, quarantine of unrecoverable
pieces, dry-run purity, obs instrumentation, idempotence/convergence under
randomized corruption, and crash-recovery for multi-timestep series.
"""

import dataclasses
import os
import random
import re
from collections import Counter

import numpy as np
import pytest

from repro.baselines.reader import read_whole_file
from repro.core import (
    SpatialReader,
    repair_dataset,
    repair_series,
    scrub_dataset,
)
from repro.core.config import WriterConfig
from repro.core.repair import (
    ACTION_QUARANTINE,
    ACTION_REBUILD_MANIFEST,
    ACTION_REBUILD_METADATA,
    ACTION_REWRITE_TRAILER,
    ACTION_TRUNCATE,
    QUARANTINE_DIR,
)
from repro.dataset import Dataset, open_dataset
from repro.domain import Box, PatchDecomposition
from repro.errors import RankFailedError
from repro.format.datafile import (
    HEADER_BYTES,
    TRAILER_FOOTER_BYTES,
    extract_recovery_trailer,
)
from repro.format.manifest import Manifest
from repro.io import VirtualBackend
from repro.io.faults import FaultInjectingBackend, FaultPlan
from repro.io.prefix import PrefixBackend
from repro.mpi import run_mpi
from repro.obs.names import EV_REPAIR_ACTION, REPAIR_ACTIONS, REPAIR_PHASES
from repro.particles import uniform_particles
from repro.series.index import SeriesIndex
from repro.series.writer import SeriesWriter

from .conftest import write_dataset
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
        """Each code string scrub can emit (an argument or assignment in
        its source) is a row of the issue table, and every row is one."""
        import ast
        import inspect

        from repro.core import scrub

        tree = ast.parse(inspect.getsource(scrub))
        emitted = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"[a-z]+(-[a-z]+)+", node.value)
        }
        assert emitted == set(scrub.ISSUES)
