"""Opening a dataset by its spatial table's head (table version 6).

Five families of checks:

* **parity** — a head-only open (``open_dataset``: the O(files) head, each
  chunk section fetched when a plan first touches its file) answers random
  box / ``attrs`` / ``where`` queries byte for byte like a whole-table parse
  of the same table (re-encoded as version 5, whose sections sit inline),
  over row, columnar and 3-generation datasets, on POSIX, virtual and
  simulated-remote backends, with serial and threaded executors;
* **bit flips** — a flip in the header or the head raises at open; a flip
  in a section raises :class:`~repro.errors.MetadataChecksumError` at the
  first plan touching that file and at no other; scrub names every flip;
* **legacy tables** — version-5 tables open, answer identically, scrub
  clean and are left alone by repair; an append onto a version-5 base
  writes a version-6 table whose records equal the merge;
* **commitment** — the manifest's ``spatial_meta_crc32`` pins the table:
  a table swapped in from another dataset is refused at open;
* **remote trade-off** — a cold box query through the remote stack reads
  the table's header, its head and one section per touched file, and no
  other section crosses the wire.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SpatialWriter, WriterConfig, scrub_dataset
from repro.core.repair import repair_dataset
from repro.dataset import Dataset, open_dataset
from repro.domain import Box, PatchDecomposition
from repro.errors import BackendError, MetadataChecksumError, MetadataError
from repro.format.manifest import MANIFEST_PATH, Manifest
from repro.format.metadata import META_PATH, SpatialMetadata, pack_names, table_crc32
from repro.io import PosixBackend, VirtualBackend
from repro.io.backend import WrapperBackend
from repro.io.executor import executor_for
from repro.io.remote import SimulatedTransport
from repro.io.resilience import build_remote_stack
from repro.mpi import run_mpi
from repro.particles import uniform_particles
from repro.particles.dtype import UINTAH_DTYPE

from .conftest import write_dataset
from .test_chunk_section import clone, v5_table

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
DOMAIN = Box([0, 0, 0], [1, 1, 1])
DECOMP = PatchDecomposition.for_nprocs(DOMAIN, 8)


def _write(backend, columnar: bool = False, generations: int = 1, per_rank: int = 160):
    cfg = WriterConfig(
        partition_factor=(1, 1, 1), chunk_size=16, attr_index=("density",),
        layout="columnar" if columnar else "row",
        codec="shuffle-zlib" if columnar else "none",
    )
    writer = SpatialWriter(cfg)
    for g in range(generations):
        op = writer.write if g == 0 else writer.append
        run_mpi(8, lambda comm, op=op, g=g: op(
            comm,
            uniform_particles(
                DECOMP.patch_of_rank(comm.rank), per_rank, dtype=UINTAH_DTYPE,
                seed=3 + g, rank=comm.rank,
            ),
            DECOMP,
            backend,
        ))
    return backend


def as_v5(backend: VirtualBackend) -> VirtualBackend:
    """A copy of ``backend`` whose current table is re-encoded as version 5,
    its manifest re-committed to it."""
    out = clone(backend)
    ds = open_dataset(out)
    meta_path, manifest_path = ds.resolution().meta_path, ds.resolution().manifest_path
    blob = v5_table(SpatialMetadata.read_whole(out, meta_path))
    out.write_file(meta_path, blob)
    manifest = Manifest.read(out, manifest_path)
    manifest.spatial_meta_crc32 = table_crc32(blob)
    manifest.write(out, manifest_path)
    return out


DATASETS = {
    "row": _write(VirtualBackend()),
    "columnar": _write(VirtualBackend(), columnar=True),
    "3-generations": _write(VirtualBackend(), generations=3, per_rank=60),
}
LEGACY = {name: as_v5(backend) for name, backend in DATASETS.items()}


def version_of(backend, path: str) -> int:
    return struct.unpack_from("<I", backend.read_file(path), 8)[0]


def on_posix(backend: VirtualBackend, root) -> PosixBackend:
    for path, raw in backend._files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(raw)
    return PosixBackend(root, create=False)


def answer(ds: Dataset, box: Box, attrs, where) -> bytes:
    engine = ds.engine()
    plan = engine.plan_box(box, attrs=attrs, where=where)
    return engine.run(plan, exact=True).batch.data.tobytes()


# -- parity -------------------------------------------------------------------------


@st.composite
def queries(draw):
    corners = [sorted(draw(st.floats(0.0, 1.0)) for _ in "ab") for _axis in range(3)]
    box = Box([c[0] for c in corners], [c[1] for c in corners])
    attrs = draw(st.sampled_from([None, ["density"], ["id", "density"]]))
    where = None
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.floats(0.0, 1.0)) for _ in "ab")
        where = {"density": (lo, hi)}
    return box, attrs, where


BACKENDS = ("virtual", "posix", "remote")


@pytest.fixture(scope="module")
def stacks(tmp_path_factory):
    """Per (dataset, backend kind): the v6 and the v5 form of the dataset."""
    out = {}
    for name in DATASETS:
        for kind in BACKENDS:
            pair = []
            for i, backend in enumerate((DATASETS[name], LEGACY[name])):
                if kind == "posix":
                    backend = on_posix(backend, tmp_path_factory.mktemp(f"{name}-{i}"))
                elif kind == "remote":
                    backend = build_remote_stack(SimulatedTransport(backend))
                pair.append(backend)
            out[name, kind] = tuple(pair)
    return out


class TestParity:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(query=queries())
    def test_head_open_answers_like_a_whole_table_parse(self, stacks, query):
        box, attrs, where = query
        for (_name, _kind), (head, whole) in stacks.items():
            for mode in ("serial", "thread"):
                executor = executor_for(1 if mode == "serial" else 2, "thread")
                try:
                    got = answer(open_dataset(head, executor=executor), box, attrs, where)
                    want = answer(open_dataset(whole, executor=executor), box, attrs, where)
                finally:
                    executor.shutdown()
                assert got == want

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_whole_parses_of_v5_and_v6_agree(self, name):
        v6, v5 = DATASETS[name], LEGACY[name]
        path = open_dataset(v6).resolution().meta_path
        assert (version_of(v6, path), version_of(v5, path)) == (6, 5)
        whole = SpatialMetadata.read_whole(v6, path)
        assert whole.records == SpatialMetadata.read_whole(v5, path).records
        assert whole.to_bytes() == v6.read_file(path)
        head = SpatialMetadata.read(v6, path)
        assert [r.section for r in head] == [b""] * len(head)
        assert all(r.section_ref is not None for r in head)
        assert head.crc32 == whole.crc32 == table_crc32(v6.read_file(path))

    def test_a_head_opened_table_cannot_be_rewritten(self):
        with pytest.raises(MetadataError, match="read it whole"):
            SpatialMetadata.read(DATASETS["row"]).to_bytes()


# -- bit flips ------------------------------------------------------------------------


SMALL = _write(VirtualBackend(), per_rank=40)


def flipped(pos: int) -> VirtualBackend:
    damaged = clone(SMALL)
    raw = bytearray(damaged.read_file(META_PATH))
    raw[pos] ^= 1 << ((pos + FAULT_SEED) % 8)
    damaged.write_file(META_PATH, bytes(raw))
    return damaged


def file_box(rec) -> Box:
    """A query box that intersects ``rec``'s file and no other."""
    return Box(rec.bounds.lo, rec.bounds.hi)


class TestBitFlips:
    table = SMALL.read_file(META_PATH)
    head_offset = struct.unpack_from("<Q", table, 16)[0]
    records = SpatialMetadata.read_whole(SMALL).records

    def test_the_small_table_is_a_v6_table(self):
        assert version_of(SMALL, META_PATH) == 6
        assert len(self.records) == 8 and all(r.section for r in self.records)

    def test_a_flip_in_the_header_or_head_raises_at_open(self):
        positions = [*range(24), *range(self.head_offset, len(self.table))]
        for pos in positions[FAULT_SEED % 5 :: 5]:  # seeds 0-4 cover every byte
            damaged = flipped(pos)
            expected = MetadataError if pos < 24 else MetadataChecksumError
            with pytest.raises(expected):
                open_dataset(damaged)
            with pytest.raises(MetadataError):
                open_dataset(damaged, strict=False)
            report = scrub_dataset(Dataset(damaged))
            assert {i.path for i in report.issues} >= {META_PATH}, pos
            assert report.codes & {"metadata-checksum", "metadata-corrupt"}, pos

    @pytest.mark.parametrize("strict", [True, False])
    def test_a_flip_in_a_section_raises_at_the_plan_touching_its_file(self, strict):
        sections = [rec.section_ref for rec in SpatialMetadata.read(SMALL)]
        step = max(1, (self.head_offset - 24) // 24)
        for pos in range(24 + FAULT_SEED % step, self.head_offset, step):
            victim = next(i for i, (off, n, _) in enumerate(sections) if off <= pos < off + n)
            damaged = flipped(pos)
            ds = open_dataset(damaged, strict=strict)  # the head is intact
            engine = ds.engine()
            for i, rec in enumerate(ds.metadata):
                if i != victim:
                    engine.run(engine.plan_box(file_box(rec)), exact=True)
                    continue
                for _attempt in range(2):  # a failed fetch is never memoised
                    with pytest.raises(MetadataChecksumError, match=rec.file_path):
                        engine.plan_box(file_box(rec))
            full = open_dataset(damaged, strict=strict).engine()
            with pytest.raises(MetadataChecksumError):
                full.run(full.plan_full())
            report = scrub_dataset(Dataset(damaged))
            assert report.codes == {"metadata-checksum"}, pos
            assert [i.path for i in report.issues] == [META_PATH]

    def test_section_framing_lies_in_a_crc_valid_head_raise_at_open(self):
        rows = self.head_offset + 8  # past the two counts
        names_len = len(pack_names(("density",)))
        row = 32 + 48 + 16  # the fixed fields and the one attribute's range
        for field, value in (("offset", 25), ("length", 1 << 40), ("length", 0)):
            raw = bytearray(self.table[:-8])
            at = rows + names_len + row + (0 if field == "offset" else 8)
            struct.pack_into("<Q", raw, at, value)
            head = raw[self.head_offset :]
            crc = zlib.crc32(head, zlib.crc32(raw[:24]))
            blob = bytes(raw) + struct.pack("<4sI", b"MCRC", crc)
            damaged = clone(SMALL)
            damaged.write_file(META_PATH, blob)
            manifest = Manifest.read(damaged)
            manifest.spatial_meta_crc32 = table_crc32(blob)
            manifest.write(damaged)
            with pytest.raises(MetadataError, match="chunk section"):
                open_dataset(damaged)
            with pytest.raises(MetadataError):
                SpatialMetadata.from_bytes(blob)

    def test_a_damaged_head_length_allocates_nothing_large(self):
        damaged = clone(SMALL)
        raw = bytearray(self.table)
        struct.pack_into("<I", raw, 12, 2**32 - 1)
        damaged.write_file(META_PATH, bytes(raw))
        with pytest.raises(MetadataError, match="does not end the table"):
            open_dataset(damaged)

    def test_a_truncated_table_fails_the_open(self):
        for cut in (len(self.table) - 1, self.head_offset, 100):
            damaged = clone(SMALL)
            damaged.write_file(META_PATH, self.table[:cut])
            with pytest.raises(MetadataError):
                open_dataset(damaged)

    def test_a_table_replaced_after_the_open_never_lands_an_index(self):
        backend = clone(SMALL)
        ds = open_dataset(backend)
        other = SpatialMetadata.read_whole(backend)
        for rec in other.records:  # same lengths, other bytes
            section = bytearray(rec.section)
            section[-1] ^= 0xFF
            rec.section = bytes(section)
        backend.write_file(META_PATH, other.to_bytes())
        rec = ds.metadata.records[FAULT_SEED % len(ds.metadata)]
        with pytest.raises(MetadataChecksumError, match=rec.file_path):
            ds.chunk_index(rec)

    def test_a_failed_fetch_is_not_memoised(self):
        class FailOnce(WrapperBackend):
            armed = False

            def readv(self, path, segments, actor=-1):
                if path == META_PATH and self.armed:
                    self.armed = False
                    raise BackendError("injected")
                return super().readv(path, segments, actor=actor)

        backend = FailOnce(clone(SMALL))
        ds = open_dataset(backend)
        backend.armed = True
        rec = ds.metadata.records[0]
        assert ds.chunk_index(rec) is None and not backend.armed
        assert ds.chunk_index(rec) is not None


# -- legacy tables --------------------------------------------------------------------


class TestLegacyTables:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_v5_tables_scrub_clean_and_repair_leaves_them_alone(self, name):
        backend = clone(LEGACY[name])
        before = dict(backend._files)
        assert scrub_dataset(Dataset(backend)).ok
        result = repair_dataset(Dataset(backend))
        assert result.ok and not result.actions
        assert backend._files == before

    def test_repair_of_a_v5_dataset_keeps_its_table(self):
        backend = clone(LEGACY["row"])
        table = backend.read_file(META_PATH)
        backend.delete(MANIFEST_PATH)
        result = repair_dataset(Dataset(backend))
        assert result.ok and "rebuild-metadata" not in {a.kind for a in result.actions}
        assert backend.read_file(META_PATH) == table
        assert Manifest.read(backend).spatial_meta_crc32 == zlib.crc32(table)
        assert scrub_dataset(Dataset(backend)).ok

    def test_a_v5_open_reads_the_table_whole(self):
        backend = clone(LEGACY["row"])
        backend.clear_ops()
        ds = open_dataset(backend)
        reads = [op for op in backend.ops_of_kind("read") if op.path == META_PATH]
        assert [op.nbytes for op in reads] == [24, len(backend.read_file(META_PATH))]
        assert all(rec.section and rec.section_ref is None for rec in ds.metadata)

    def test_append_onto_a_v5_base_writes_the_merge_as_v6(self):
        backend = clone(LEGACY["row"])
        base = SpatialMetadata.read_whole(backend).records
        cfg = WriterConfig(partition_factor=(1, 1, 1), chunk_size=16, attr_index=("density",))
        writer = SpatialWriter(cfg)
        run_mpi(8, lambda comm: writer.append(
            comm,
            uniform_particles(
                DECOMP.patch_of_rank(comm.rank), 30, dtype=UINTAH_DTYPE, seed=5,
                rank=comm.rank,
            ),
            DECOMP,
            backend,
        ))
        ds = open_dataset(backend)
        path = ds.resolution().meta_path
        assert ds.generation == 1 and version_of(backend, path) == 6
        merged = SpatialMetadata.read_whole(backend, path).records
        assert [r for r in merged if r.gen == 0] == base
        assert sorted(r.box_id for r in merged) == [r.box_id for r in merged]
        assert len([r for r in merged if r.gen == 1]) == 8
        assert scrub_dataset(Dataset(backend)).ok


# -- commitment -----------------------------------------------------------------------


def test_a_swapped_table_is_refused_at_open(tmp_path):
    box = Box([0.1, 0.1, 0.1], [0.4, 0.45, 0.5])
    roots = {}
    for seed in (7, 8):
        roots[seed] = tmp_path / f"ds{seed}"
        write_dataset(
            nprocs=8, partition_factor=(1, 1, 1), particles_per_rank=4000, seed=seed,
            backend=PosixBackend(roots[seed]),
        )
    engine = open_dataset(roots[7]).engine()
    assert len(engine.run(engine.plan_box(box), exact=True)) == 1345
    shutil.copyfile(roots[8] / META_PATH, roots[7] / META_PATH)
    with pytest.raises(MetadataChecksumError, match="spatial_meta_crc32"):
        open_dataset(roots[7])
    with pytest.raises(MetadataChecksumError):
        open_dataset(roots[7], strict=False)
    report = scrub_dataset(Dataset(roots[7]))
    assert "metadata-crc-mismatch" in report.codes


def test_a_manifest_without_the_field_commits_nothing():
    backend = clone(DATASETS["row"])
    manifest = Manifest.read(backend)
    manifest.spatial_meta_crc32 = None
    manifest.write(backend)
    assert open_dataset(backend).num_files == 8


# -- remote trade-off ---------------------------------------------------------------------


def remote_ledger(store: VirtualBackend) -> list[tuple[int, int]]:
    """``(requests, bytes)`` the transport moves to open ``store`` through the
    remote stack, plan one box query, and run it."""
    transport = SimulatedTransport(store, jitter=0.0)
    stack = build_remote_stack(transport, disk_cache_dir=None)
    steps, last = [], (0, 0)

    def mark():
        nonlocal last
        now = (transport.stats.requests, transport.stats.bytes_moved)
        steps.append((now[0] - last[0], now[1] - last[1]))
        last = now

    ds = open_dataset(stack)
    mark()
    plan = ds.engine().plan_box(Box([0.1, 0.2, 0.05], [0.4, 0.45, 0.5]))
    mark()
    ds.engine().run(plan, exact=True)
    mark()
    return steps, plan


def test_remote_cold_query_pins_requests_and_bytes():
    store, legacy = DATASETS["row"], LEGACY["row"]
    (open_, plan_, run_), plan = remote_ledger(store)
    table, v5 = store.read_file(META_PATH), legacy.read_file(META_PATH)
    head = len(table) - struct.unpack_from("<Q", table, 16)[0]
    touched = [rec.section_ref[1] for rec, _count in plan.entries]
    manifest = len(store.read_file(MANIFEST_PATH))
    assert len(touched) == 1  # the box lies in one file's octant
    # Open: the generation probes and the manifest (three requests), then
    # the table's header and its head — no section.
    assert open_ == (5, manifest + 24 + head)
    # Plan: one ranged read of the touched file's section, nothing else.
    assert plan_ == (1, touched[0])
    # Run: one request per touched data file; the table is done with.
    assert run_ == (1, 17880)
    # The same table as version 5 is read whole after its header (a
    # version-5 open before the table head read it whole in one request:
    # (4, manifest + len(v5)), then (0, 0) to plan).
    (open5, plan5, run5), _ = remote_ledger(legacy)
    manifest5 = len(legacy.read_file(MANIFEST_PATH))
    assert (open5, plan5, run5) == ((5, manifest5 + 24 + len(v5)), (0, 0), run_)
    # The trade-off: one request per touched section, and every untouched
    # section stays on the server.
    assert open_[0] + plan_[0] == open5[0] + len(touched)
    saved = (open5[1] - manifest5) - (open_[1] - manifest + plan_[1])
    assert saved == len(v5) - head - sum(touched)
    untouched = sum(len(r.section) for r in SpatialMetadata.read_whole(store)) - sum(touched)
    assert untouched > saved > untouched - 16 * len(plan.entries) * 8
