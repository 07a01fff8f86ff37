"""The chunk index as a packed section of the binary spatial table.

Four families of checks:

* **equivalence** — on the e2e benchmark's own fixtures (smoke R, smoke C,
  and W written, appended twice and compacted) every file's table-landed
  index equals the one its recovery trailer describes, array for array, and
  pruned / projected / ``where`` answers equal the brute-force oracle across
  generation pins and a cache tier;
* **traffic** — ``open_dataset`` plus one box query reads the manifest once,
  the table once, no trailer, and only the data files the box selects; the
  manifest entry holds file-level facts only;
* **structure-aware fuzz** — truncations, header fields, broken tiling and
  segments, size products that overflow, CRC-valid tables that lie: every
  one raises a :class:`~repro.errors.ReproError` subclass or is reported by
  scrub as a repairable ``chunk-index-mismatch`` (damage drawn from
  ``REPRO_FAULT_SEED``), and the JSON and binary constructors fail one
  invariant with one message;
* **non-UTF-8 input** — a stray byte in ``manifest.json`` or in a v2
  table's attribute names surfaces as the format's own typed error through
  ``open_dataset``, ``Dataset.scrub()`` and ``repro scrub``.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import SpatialWriter, WriterConfig, scrub_dataset
from repro.core.compact import compact_dataset
from repro.dataset import Dataset, open_dataset
from repro.domain import Box, PatchDecomposition
from repro.errors import DataFileError, FormatError, MetadataError, ReproError
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import (
    TRAILER_FOOTER_BYTES,
    RecoveryTrailer,
    read_recovery_trailer,
)
from repro.format.manifest import Manifest
from repro.format.metadata import (
    META_PATH,
    META_VERSION_CHUNKS,
    SUPPORTED_META_VERSIONS,
    SpatialMetadata,
    pack_names,
    pack_record,
    table_crc32,
)
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles import uniform_particles
from repro.particles.dtype import UINTAH_DTYPE

from .test_write_path import oracle_section

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from e2e.fixtures import FIXTURES, generate  # noqa: E402
from e2e.oracle import Oracle, result_signature  # noqa: E402

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
SEED = 11
FIELDS = ("starts", "counts", "lo", "hi", "attr_ranges", "segments")
BOXES = (
    Box([0.1, 0.2, 0.05], [0.4, 0.45, 0.5]),
    Box([0.5, 0.5, 0.5], [0.62, 0.9, 0.7]),
    Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
)


def clone(backend: VirtualBackend) -> VirtualBackend:
    out = VirtualBackend()
    out._files = dict(backend._files)
    return out


def write_fixture(name: str):
    """The fixture on a virtual backend, every generation committed; returns
    the backend and the per-generation particle arrays."""
    fx = FIXTURES[name]
    gens = generate(fx, SEED, smoke=name != "W")
    backend = VirtualBackend()
    writer, decomp = SpatialWriter(fx.writer_config()), fx.decomposition()
    for g, batches in enumerate(gens):
        op = writer.write if g == 0 else writer.append
        run_mpi(fx.ranks, lambda comm, b=batches, op=op: op(comm, b[comm.rank], decomp, backend))
    return backend, [np.concatenate([b.data for b in batches]) for batches in gens]


@pytest.fixture(scope="module")
def fixtures():
    out = {name: write_fixture(name) for name in ("R", "C", "W")}
    compacted = clone(out["W"][0])
    compact_dataset(compacted, keep=4)
    out["W+compact"] = (compacted, out["W"][1])
    return out


def trailer_index(ds: Dataset, rec) -> FileChunkIndex:
    trailer = read_recovery_trailer(ds.backend, rec.file_path)
    return FileChunkIndex.unpack(trailer.record.section, rec.file_path).validated(
        rec.particle_count, rec.file_path, trailer.codec,
        tuple(ds.metadata.attr_names),
    )


# -- equivalence ----------------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("name", ["R", "C", "W", "W+compact"])
    def test_table_index_equals_trailer_index(self, fixtures, name):
        ds = open_dataset(fixtures[name][0])
        for rec in ds.metadata:
            landed, want = ds.chunk_index(rec), trailer_index(ds, rec)
            assert landed is not None and len(landed) == len(want) > 0
            for field in FIELDS:
                a, b = getattr(landed, field), getattr(want, field)
                if b is None:
                    assert a is None, field
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert np.array_equal(a, b), field
                # Bounds land column-major (select_runs scans per-axis
                # columns), everything else row-major.
                layout = "f_contiguous" if field in ("lo", "hi") else "c_contiguous"
                assert getattr(a.flags, layout) and a.flags.aligned and a.flags.owndata
            assert landed.codec == want.codec

    @pytest.mark.parametrize("name", ["R", "W", "W+compact"])
    def test_pruned_answers_equal_the_oracle(self, fixtures, name):
        backend, gens = fixtures[name]
        pins = range(len(gens)) if name == "W" else [None]
        for pin in pins:
            upto = len(gens) if pin is None else pin + 1
            oracle = Oracle([np.concatenate(gens[:upto])])
            for cache in (0, 8 << 20):
                reader = Dataset(backend, generation=pin, cache_bytes=cache).reader()
                for box in BOXES:
                    plan = reader.plan_box_read(box)
                    if box is not BOXES[-1]:
                        assert plan.chunk_runs  # the index prunes
                    got = result_signature(reader.execute(plan, exact=True).data)
                    assert got == oracle.box(box.lo, box.hi)

    def test_projection_and_where_equal_the_oracle(self, fixtures):
        backend, gens = fixtures["C"]
        oracle = Oracle(gens)
        where = {"density": (0.2, 0.7)}
        for cache in (0, 8 << 20):
            reader = Dataset(backend, cache_bytes=cache).reader()
            for box in BOXES:
                plan = reader.plan_box_read(box, attrs=["density"], where=where)
                got = result_signature(reader.execute(plan, exact=True).data)
                assert got == oracle.box(box.lo, box.hi, where, field="density")


# -- traffic ----------------------------------------------------------------------


class TestTraffic:
    @pytest.mark.parametrize("name", ["R", "C", "W"])
    def test_open_and_one_box_query(self, fixtures, name):
        backend = clone(fixtures[name][0])
        tails = {}
        for path in backend._files:
            if path.startswith("data/"):
                body_len = struct.unpack("<4sII", backend._files[path][-12:])[1]
                tails[path] = len(backend._files[path]) - TRAILER_FOOTER_BYTES - body_len
        backend.clear_ops()
        ds = open_dataset(backend)
        reader = ds.reader()
        plan = reader.plan_box_read(BOXES[0])
        reader.execute(plan, exact=True)
        reads = backend.ops_of_kind("read")
        resolved = ds.resolution()
        assert sum(op.path == resolved.manifest_path for op in reads) == 1
        # The table: its header, its head, then one ranged read of each
        # section the plan touched — never the whole table.
        table = [(op.offset, op.nbytes) for op in reads if op.path == resolved.meta_path]
        touched = {rec.section_ref[:2] for rec, _count in plan.entries}
        assert len(table) == 2 + len(touched) and set(table[2:]) == touched
        assert sum(n for _off, n in table) < len(backend._files[resolved.meta_path])
        data_reads = [op for op in reads if op.path.startswith("data/")]
        assert not [op for op in data_reads if op.offset + op.nbytes > tails[op.path]]
        selected = {rec.file_path for rec, _count in plan.entries}
        assert {op.path for op in data_reads} == selected
        assert len(selected) < len(ds.metadata)

    @pytest.mark.parametrize("name", ["R", "C", "W", "W+compact"])
    def test_manifest_entries_hold_file_level_facts_only(self, fixtures, name):
        ds = open_dataset(fixtures[name][0])
        raw = json.loads(ds.backend.read_file(ds.resolution().manifest_path))
        for entry in raw["checksums"].values():
            assert set(entry) <= {"payload_crc32", "prefixes", "codec"}
        assert all(rec.section_ref for rec in ds.metadata)


def chunk_list(section: bytes) -> list:
    """A packed section as the text ``chunks`` list earlier writers stored
    (``[start, count, lo, hi, [[min, max], ...]]``, plus the segment
    triples of a columnar file) — the inverse of ``oracle_section``."""
    index = FileChunkIndex.unpack(section)
    attrs = index.attr_ranges
    if attrs is None:
        attrs = np.empty((len(index), 0, 2))
    cols = [a.tolist() for a in (index.starts, index.counts, index.lo, index.hi, attrs)]
    if index.segments is not None:
        cols.append(index.segments.tolist())
    return [list(chunk) for chunk in zip(*cols)]


def json_trailer(trailer: RecoveryTrailer) -> bytes:
    """``trailer`` as writers before the binary trailer encoded it: a
    compact, key-sorted JSON body under the ``RCVT`` tail (the reference
    encoder of the legacy form)."""
    rec = trailer.record
    doc = {
        "box_id": rec.box_id,
        "agg_rank": rec.agg_rank,
        "particle_count": rec.particle_count,
        "bounds": {"lo": rec.bounds.lo.tolist(), "hi": rec.bounds.hi.tolist()},
        "attr_ranges": [[n, lo, hi] for n, (lo, hi) in rec.attr_ranges.items()],
        "dtype_descr": trailer.dtype_descr,
        "lod": {
            "base": trailer.lod_base,
            "scale": trailer.lod_scale,
            "heuristic": trailer.lod_heuristic,
            "seed": trailer.lod_seed,
        },
        "payload_crc32": trailer.payload_crc32,
        "prefixes": [[c, crc] for c, crc in trailer.prefixes],
    }
    if rec.section:
        doc["chunks"] = chunk_list(rec.section)
    if rec.gen:
        doc["gen"] = rec.gen
    if trailer.codec is not None:
        doc["codec"] = trailer.codec
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return body + struct.pack("<4sII", b"RCVT", len(body), zlib.crc32(body))


def with_trailer(raw: bytes, trailer_bytes: bytes) -> bytes:
    """A data-file image with its trailer (body + tail) replaced."""
    body_len = struct.unpack("<4sII", raw[-TRAILER_FOOTER_BYTES:])[1]
    return raw[: len(raw) - TRAILER_FOOTER_BYTES - body_len] + trailer_bytes


def json_trailers(backend: VirtualBackend) -> None:
    """Re-encode every data file's trailer in the legacy JSON form."""
    for path in [p for p in backend._files if p.startswith("data/")]:
        trailer = read_recovery_trailer(backend, path)
        backend.write_file(path, with_trailer(backend.read_file(path), json_trailer(trailer)))


def v5_table(table: SpatialMetadata) -> bytes:
    """``table`` as writers before the table head encoded it: version 5,
    every section inline after its record (the reference encoder of the
    legacy form)."""
    names = table.attr_names
    body = struct.pack("<8sIIII", b"SPIOMETA", 5, len(table), len(names), 0)
    body += pack_names(names)
    body += b"".join(pack_record(rec, names, META_VERSION_CHUNKS) for rec in table)
    return body + struct.pack("<4sI", b"MCRC", zlib.crc32(body))


def make_legacy(backend: VirtualBackend) -> None:
    """Rewrite a classic dataset the way writers before table sections did:
    JSON trailers, a v3 table without sections, the chunk lists in the
    manifest entries."""
    json_trailers(backend)
    meta = SpatialMetadata.read_whole(backend)
    manifest = Manifest.read(backend)
    for rec in meta.records:
        manifest.checksums[rec.file_path]["chunks"] = chunk_list(rec.section)
        rec.section = b""
    blob = meta.to_bytes()
    assert struct.unpack_from("<I", blob, 8)[0] == 3
    backend.write_file(META_PATH, blob)
    manifest.spatial_meta_crc32 = table_crc32(blob)
    manifest.write(backend)


class TestLegacyDataset:
    @pytest.mark.parametrize("name", ["R", "C"])
    def test_answers_correctly_and_compact_upgrades_it(self, fixtures, name):
        backend, gens = fixtures[name]
        backend = clone(backend)
        make_legacy(backend)
        assert b'"chunks"' in backend.read_file("manifest.json")
        oracle = Oracle(gens)
        ds = open_dataset(backend)
        assert "chunks" not in next(iter(ds.manifest.checksums.values()))
        for rec in ds.metadata:
            if name == "R":  # the no-index path: whole files
                assert ds.chunk_index(rec) is None
            else:  # a columnar file's descriptors come from its trailer
                landed, want = ds.chunk_index(rec), trailer_index(ds, rec)
                assert landed.to_section() == want.to_section()
                assert landed.codec == want.codec is not None
        assert scrub_dataset(Dataset(backend)).ok
        self.assert_answers(ds.reader(), oracle, pruned=name == "C")
        compact_dataset(backend)
        ds = open_dataset(backend)
        assert ds.generation == 1
        assert struct.unpack_from("<I", backend.read_file(ds.resolution().meta_path), 8)[0] == 6
        assert all(ds.chunk_index(rec) is not None for rec in ds.metadata)
        assert scrub_dataset(Dataset(backend)).ok
        self.assert_answers(ds.reader(), oracle, pruned=True)

    def test_append_onto_a_legacy_columnar_base(self, fixtures):
        backend, gens = fixtures["C"]
        backend = clone(backend)
        make_legacy(backend)
        fx = FIXTURES["C"]
        extra = generate(fx, SEED + 7, smoke=True)[0]
        writer, decomp = SpatialWriter(fx.writer_config()), fx.decomposition()
        run_mpi(fx.ranks, lambda comm: writer.append(comm, extra[comm.rank], decomp, backend))
        ds = open_dataset(backend)
        assert ds.generation == 1
        table = SpatialMetadata.read_whole(backend, ds.resolution().meta_path)
        carried = [rec for rec in table if not rec.section]
        assert carried and all(ds.chunk_index(rec) is not None for rec in carried)
        assert scrub_dataset(Dataset(backend)).ok
        oracle = Oracle([np.concatenate([*gens, *(b.data for b in extra)])])
        self.assert_answers(ds.reader(), oracle, pruned=True)

    @staticmethod
    def assert_answers(reader, oracle, pruned: bool) -> None:
        where = {"density": (0.2, 0.7)}
        for box in BOXES:
            plan = reader.plan_box_read(box)
            assert bool(plan.chunk_runs) == (pruned and box is not BOXES[-1])
            got = result_signature(reader.execute(plan, exact=True).data)
            assert got == oracle.box(box.lo, box.hi)
            plan = reader.plan_box_read(box, attrs=["density"], where=where)
            got = result_signature(reader.execute(plan, exact=True).data)
            assert got == oracle.box(box.lo, box.hi, where, field="density")


# -- structure-aware fuzz ----------------------------------------------------------

DOMAIN = Box([0, 0, 0], [1, 1, 1])
DECOMP = PatchDecomposition.for_nprocs(DOMAIN, 8)


def small_dataset(columnar: bool) -> VirtualBackend:
    backend = VirtualBackend()
    cfg = WriterConfig(
        partition_factor=(2, 2, 1), chunk_size=16, attr_index=("density",),
        layout="columnar" if columnar else "row",
        codec="shuffle-zlib" if columnar else "none",
    )
    writer = SpatialWriter(cfg)
    run_mpi(8, lambda comm: writer.write(
        comm,
        uniform_particles(
            DECOMP.patch_of_rank(comm.rank), 120, dtype=UINTAH_DTYPE, seed=3,
            rank=comm.rank,
        ),
        DECOMP,
        backend,
    ))
    return backend


SMALL = {columnar: small_dataset(columnar) for columnar in (False, True)}


def commit_section(backend: VirtualBackend, index: int, section: bytes) -> None:
    """Swap record ``index``'s section and re-commit the table's CRC in the
    manifest: a CRC-valid table carrying ``section``."""
    meta = SpatialMetadata.read_whole(backend)
    meta.records[index].section = section
    blob = meta.to_bytes()
    backend.write_file(META_PATH, blob)
    manifest = Manifest.read(backend)
    manifest.spatial_meta_crc32 = table_crc32(blob)
    manifest.write(backend)


def assert_contained(backend: VirtualBackend, victim: str, original: VirtualBackend) -> None:
    """The damaged section never escapes as a foreign exception: reads stay
    correct, scrub flags it (repairable) and repair restores every byte."""
    ds = open_dataset(backend)
    rec = next(r for r in ds.metadata if r.file_path == victim)
    index = ds.chunk_index(rec)  # None (rejected) or a valid index
    reader, want = ds.reader(), open_dataset(original).reader()
    try:
        got = reader.execute(reader.plan_box_read(BOXES[0]), exact=True)
    except ReproError:
        pass  # typed: no index for a columnar file, or a lying segment CRC
    else:  # a valid index that lies is scrub's to catch
        assert index is not None or got.data.tobytes() == (
            want.execute(want.plan_box_read(BOXES[0]), exact=True).data.tobytes()
        )
    report = scrub_dataset(Dataset(backend))
    if report.ok:
        # Only an edit that changed no value (0.0 -> -0.0) scrubs clean.
        clean = open_dataset(original).chunk_index(rec)
        assert index is not None
        assert all(
            np.array_equal(getattr(index, f), getattr(clean, f))
            for f in FIELDS if getattr(clean, f) is not None
        )
        return
    assert report.codes <= {"chunk-index-mismatch", "trailer-mismatch"}
    assert "chunk-index-mismatch" in report.codes
    assert all(i.repairable for i in report.issues)
    assert Dataset(backend).repair(report).ok
    assert backend._files == original._files


def sections_of(backend: VirtualBackend) -> list[bytes]:
    return [rec.section for rec in SpatialMetadata.read_whole(backend)]


def landed(section: bytes, count: int, codec=None) -> FileChunkIndex:
    return FileChunkIndex.unpack(section, "f").validated(count, "f", codec, ("density",))


class TestSectionFuzz:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_truncation_at_every_boundary(self, columnar):
        section = sections_of(SMALL[columnar])[0]
        n, nattrs, ncols = struct.unpack_from("<QII", section)
        cuts = {0, 1, 8, 15, 16, len(section) - 1}
        pos = 16
        for words in (n, n, 3 * n, 3 * n, 2 * n * nattrs, 3 * n * ncols):
            pos += 8 * words
            cuts |= {pos - 1, pos, pos + 1}
        for cut in sorted(c for c in cuts if 0 <= c < len(section)):
            with pytest.raises(DataFileError):
                FileChunkIndex.unpack(section[:cut])

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("field", ["chunks", "attrs", "columns"])
    @pytest.mark.parametrize("value", ["0", "1", "huge"])
    def test_header_field_set_to_0_1_huge(self, columnar, field, value):
        backend = SMALL[columnar]
        rec = SpatialMetadata.read_whole(backend).records[0]
        header = list(struct.unpack_from("<QII", rec.section))
        k = ("chunks", "attrs", "columns").index(field)
        huge = 2**64 - 1 if k == 0 else 2**32 - 1
        header[k] = {"0": 0, "1": 1, "huge": huge}[value]
        section = struct.pack("<QII", *header) + rec.section[16:]
        codec = "shuffle-zlib" if columnar else None
        try:
            landed(section, rec.particle_count, codec)
        except ReproError:
            pass
        else:  # only a no-op edit may survive
            assert section == rec.section
        damaged = clone(backend)
        commit_section(damaged, 0, section)
        assert_contained(damaged, rec.file_path, backend)

    def test_size_product_overflowing_64_bits(self):
        for header in ((2**63, 2**31, 2**31), (2**64 - 1, 2**32 - 1, 2**32 - 1), (2**61, 0, 0)):
            with pytest.raises(DataFileError, match="needs"):
                FileChunkIndex.unpack(struct.pack("<QII", *header) + bytes(64))

    def test_table_framing_lies(self):
        backend = SMALL[False]
        raw = bytearray(v5_table(SpatialMetadata.read_whole(backend))[:-8])
        names_end = 24 + 4 + len("density")
        record = names_end + struct.calcsize("<QQQQ6d") + 16  # its section_len
        for size in (2**64 - 1, len(raw), 2**32):
            struct.pack_into("<Q", raw, record, size)
            blob = bytes(raw) + struct.pack("<4sI", b"MCRC", zlib.crc32(raw))
            with pytest.raises(MetadataError):
                SpatialMetadata.from_bytes(blob)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_non_monotone_and_overlapping_edits(self, columnar):
        backend = SMALL[columnar]
        rec = SpatialMetadata.read_whole(backend).records[1]
        base = chunk_list(rec.section)
        edits = [
            lambda e: e[1].__setitem__(0, e[1][0] + 1),  # a gap
            lambda e: e[2].__setitem__(0, e[2][0] - 1),  # an overlap
            lambda e: e.__setitem__(slice(1, 3), [e[2], e[1]]),  # swapped
            lambda e: e[0].__setitem__(1, 0),  # an empty chunk
        ]
        if columnar:
            edits += [
                lambda e: e[1][5][0].__setitem__(0, e[0][5][0][0]),  # segment overlap
                lambda e: e[1][5][0].__setitem__(1, -1),  # negative length
                lambda e: e[2][5][2].__setitem__(0, 0),  # regressing offset
            ]
        for edit in edits:
            entry = json.loads(json.dumps(base))
            edit(entry)
            damaged = clone(backend)
            commit_section(damaged, 1, oracle_section(entry))
            assert_contained(damaged, rec.file_path, backend)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        columnar=st.booleans(),
        record=st.integers(0, 1),
        flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), min_size=1, max_size=4),
    )
    def test_random_byte_damage_in_a_crc_valid_table(self, columnar, record, flips):
        backend = SMALL[columnar]
        rec = SpatialMetadata.read_whole(backend).records[record]
        section = bytearray(rec.section)
        for pos, mask in flips:
            section[(pos + FAULT_SEED) % len(section)] ^= mask
        try:
            landed(bytes(section), rec.particle_count, "shuffle-zlib" if columnar else None)
        except ReproError:
            pass
        damaged = clone(backend)
        commit_section(damaged, record, bytes(section))
        assert_contained(damaged, rec.file_path, backend)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_section_tiling_the_wrong_count_donates_no_chunk_size(self, columnar):
        """A last chunk grown past the chunk size still tiles — its own
        total, not the file's — so it must not set the grid repair rebuilds."""
        backend = SMALL[columnar]
        rec = SpatialMetadata.read_whole(backend).records[0]
        index = FileChunkIndex.unpack(rec.section)
        index.counts[-1] = index.counts.max() + 1
        damaged = clone(backend)
        commit_section(damaged, 0, index.to_section())
        assert_contained(damaged, rec.file_path, backend)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_crc_valid_section_that_disagrees_with_the_payload(self, columnar):
        backend = SMALL[columnar]
        rec = SpatialMetadata.read_whole(backend).records[1]
        entry = chunk_list(rec.section)
        entry[0][3][1] += 0.125  # widen one chunk's hi: still valid
        landed(oracle_section(entry), rec.particle_count, "shuffle-zlib" if columnar else None)
        damaged = clone(backend)
        commit_section(damaged, 1, oracle_section(entry))
        report = scrub_dataset(Dataset(damaged))
        assert "chunk-index-mismatch" in report.codes
        assert_contained(damaged, rec.file_path, backend)


def _entry(n=3, segs=False):
    entry = [
        [4 * i, 4, [0.0, 0.0, float(i)], [1.0, 1.0, i + 0.5], [[0.0, 1.0]]]
        for i in range(n)
    ]
    if segs:
        for i, chunk in enumerate(entry):
            chunk.append([[100 * i, 50, 7], [100 * i + 50, 50, 9]])
    return entry


def _set(path, value):
    def edit(entry):
        target = entry
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


def _wrap(entry):
    """Counts whose int64 sum wraps around to look contiguous."""
    entry[0][1] = 2**62
    entry[1][0], entry[1][1] = 2**62, 2**62
    entry[2][0], entry[2][1] = -(2**63), 2**62 + 12


VIOLATIONS = {
    "starts-not-at-0": (_set((0, 0), 1), None),
    "empty-chunk": (_set((1, 1), 0), None),
    "gap": (_set((2, 0), 9), None),
    "short-cover": (_set((2, 1), 3), None),
    "int64-wrap": (lambda e: _wrap(e), None),
    "segment-overlap": (_set((1, 5, 0, 0), 20), "shuffle-zlib"),
    "segment-negative": (_set((2, 5, 1, 1), -5), "shuffle-zlib"),
    "codec-without-segments": (lambda e: None, "shuffle-zlib"),
    "attr-count": (lambda e: [c[4].append([0.0, 1.0]) for c in e], None),
}


class TestOneMessagePerInvariant:
    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_json_and_binary_constructors_agree(self, name):
        edit, codec = VIOLATIONS[name]
        entry = _entry(segs=codec is not None and name != "codec-without-segments")
        edit(entry)
        with pytest.raises(DataFileError) as from_json:
            FileChunkIndex.from_entry(entry, 12, "f", codec, ("density",))
        with pytest.raises(DataFileError) as from_table:
            FileChunkIndex.unpack(oracle_section(entry), "f").validated(
                12, "f", codec, ("density",)
            )
        assert str(from_json.value) == str(from_table.value)

    def test_clean_entry_round_trips(self):
        for segs in (False, True):
            entry = _entry(segs=segs)
            index = FileChunkIndex.unpack(oracle_section(entry)).validated(12)
            assert index.to_section() == oracle_section(entry)
            assert chunk_list(index.to_section()) == entry
            assert FileChunkIndex.from_entry(entry, 12).to_section() == oracle_section(entry)

    def test_total_particles_is_counted_once(self):
        """The validator counts the chunks anyway; reads ask again per call."""
        index = FileChunkIndex.unpack(oracle_section(_entry())).validated(12)
        index.counts = index.counts[:0]  # a later count would now read 0
        assert index.total_particles == 12
        built = FileChunkIndex.unpack(oracle_section(_entry()))
        assert built.total_particles == 12
        built.counts = built.counts[:0]
        assert built.total_particles == 12

    @pytest.mark.parametrize(
        "entry",
        [5, [5], [[0, 4]], [[0, 4, [0, 0], [1, 1], []]], [[None, 4, [0] * 3, [1] * 3, []]],
         [[2**70, 4, [0] * 3, [1] * 3, []]], [[0, 4, [0] * 3, [1] * 3, [[0.0]]]],
         [_entry()[0], _entry(segs=True)[1]]],
    )
    def test_malformed_json_is_a_data_file_error(self, entry):
        with pytest.raises(DataFileError):
            FileChunkIndex.from_entry(entry, 4)


# -- non-UTF-8 input --------------------------------------------------------------


@pytest.fixture
def bad_utf8_dataset(tmp_path):
    root = tmp_path / "ds"
    assert cli_main(["write", str(root), "--ranks", "8", "--particles", "200",
                     "--factor", "1", "1", "1"]) == 0
    raw = bytearray((root / "manifest.json").read_bytes())
    raw[100] = 0xFF
    (root / "manifest.json").write_bytes(bytes(raw))
    return root


class TestNonUtf8:
    def test_open_dataset_raises_format_error(self, bad_utf8_dataset):
        with pytest.raises(FormatError, match="manifest is not valid JSON"):
            open_dataset(bad_utf8_dataset)

    def test_dataset_scrub_reports_manifest_corrupt(self, bad_utf8_dataset):
        report = Dataset(bad_utf8_dataset).scrub()
        assert report.codes == {"manifest-corrupt"}
        assert all(i.repairable for i in report.issues)

    def test_cli_scrub_exits_1_with_a_report(self, bad_utf8_dataset, capsys):
        assert cli_main(["scrub", str(bad_utf8_dataset)]) == 1
        out = capsys.readouterr().out
        assert "manifest-corrupt" in out and "repairable" in out

    def test_manifest_that_is_not_an_object(self):
        for text in ("[1, 2]", '"spio-particles"', "7"):
            with pytest.raises(FormatError, match="not a particle dataset manifest"):
                Manifest.from_json(text)

    def test_v2_table_attribute_name(self):
        assert 2 in SUPPORTED_META_VERSIONS
        name = b"dens\xffity"
        raw = struct.pack("<8sIIII", b"SPIOMETA", 2, 0, 1, 0)
        raw += struct.pack("<I", len(name)) + name
        with pytest.raises(MetadataError, match="not utf-8"):
            SpatialMetadata.from_bytes(raw)

