"""The write path's cost model: who parses, who gathers, how many passes.

A commit should cost what its data costs.  Four families of checks:

* **reference oracles** — the vectorised / single-pass encoders against the
  naive forms they replaced and the documented layouts (kept here as the
  oracle), bit-identical, so every written byte stays what it was;
* **read-once** — a chained dataset's head manifest is parsed once per
  ``open_dataset`` and once *in total* per 8-rank ``append``;
* **collective failure** — an append that cannot proceed fails on every
  rank with the typed error a local load would raise, nobody hangs, and
  nothing on disk changes (corruption drawn from ``REPRO_FAULT_SEED``);
* **traffic and determinism** — step 8 is one gather, the collectives move
  almost nothing beside the payload, and the output does not depend on how
  the ranks were scheduled.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpatialReader, SpatialWriter, WriterConfig
from repro.dataset import Dataset, open_dataset
from repro.domain import Box, PatchDecomposition
from repro.errors import ConfigError, FormatError, RankFailedError
from repro.format.chunks import build_chunk_entry
from repro.format.datafile import (
    DATA_MAGIC,
    DATA_VERSION,
    DATA_VERSION_COLUMNAR,
    FOOTER_BYTES,
    FOOTER_MAGIC,
    HEADER_BYTES,
    TRAILER_FOOTER_BYTES,
    RecoveryTrailer,
    build_data_blob,
    compute_file_checksums,
    encode_columnar_payload,
    prefix_checksum_boundaries,
)
from repro.format.generations import (
    CURRENT_PATH,
    generation_manifest_path,
    generation_meta_path,
    list_generations,
    load_generation,
    resolve_generation,
)
from repro.format.manifest import Manifest, dtype_to_descr
from repro.format.metadata import MetadataRecord
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.mpi.message import CHANNEL_COLL
from repro.mpi.world import World
from repro.particles import ParticleBatch, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE, UINTAH_DTYPE

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

NPROCS = 8
PF = (2, 2, 1)
DOMAIN = Box([0, 0, 0], [1, 1, 1])
DECOMP = PatchDecomposition.for_nprocs(DOMAIN, NPROCS)


# -- reference oracles ---------------------------------------------------------


def oracle_chunk_entry(batch, chunk_size, boundaries, attr_names=()):
    """The per-chunk loop ``build_chunk_entry`` was before it computed on
    whole arrays — the definition of its result."""
    positions = np.asarray(batch.positions, dtype=np.float64)
    columns = {
        name: np.asarray(batch.data[name], dtype=np.float64) for name in attr_names
    }
    entry = []
    seg_start = 0
    for boundary in boundaries:
        for start in range(seg_start, boundary, chunk_size):
            end = min(start + chunk_size, boundary)
            pos = positions[start:end]
            entry.append(
                [
                    int(start),
                    int(end - start),
                    [float(v) for v in pos.min(axis=0)],
                    [float(v) for v in pos.max(axis=0)],
                    [
                        [float(columns[n][start:end].min()),
                         float(columns[n][start:end].max())]
                        for n in attr_names
                    ],
                ]
            )
        seg_start = boundary
    return entry


def oracle_section(entry) -> bytes:
    """A ``chunks`` list (``[start, count, lo, hi, [[min, max], ...]]`` plus
    segment triples for columnar files) packed field by field as the
    section layout reads: ``u64 chunks | u32 attrs | u32 columns``, then
    starts, counts, lo, hi, attribute pairs and segment triples, each one
    array in chunk order."""
    nattrs = len(entry[0][4]) if entry else 0
    ncols = len(entry[0][5]) if entry and len(entry[0]) > 5 else 0
    fields = (
        ("q", [c[0] for c in entry]),
        ("q", [c[1] for c in entry]),
        ("d", [v for c in entry for v in c[2]]),
        ("d", [v for c in entry for v in c[3]]),
        ("d", [v for c in entry for pair in c[4] for v in pair]),
        ("q", [v for c in entry for seg in c[5:6] for triple in seg for v in triple]),
    )
    return struct.pack("<QII", len(entry), nattrs, ncols) + b"".join(
        struct.pack(f"<{len(vals)}{code}", *vals) for code, vals in fields
    )


ATTRS = ("density", "velocity", "mass")


def random_batch(n: int, pos_type: str, seed: int) -> ParticleBatch:
    rng = np.random.default_rng(seed)
    dtype = np.dtype(
        [
            ("position", pos_type, (3,)),
            ("density", "<f8"),
            ("velocity", "<f4", (3,)),  # a vector attribute: min/max over all
            ("mass", "<f8"),
        ]
    )
    data = np.zeros(n, dtype=dtype)
    data["position"] = rng.random((n, 3))
    data["density"] = rng.normal(size=n)
    data["velocity"] = rng.normal(size=(n, 3))
    data["mass"] = rng.normal(size=n)
    # NaN-free, but infinities are legal attribute values.
    data["density"][rng.random(n) < 0.05] = np.inf
    data["mass"][rng.random(n) < 0.05] = -np.inf
    return ParticleBatch(data)


class TestChunkEntryOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        chunk_size=st.integers(1, 70),
        around=st.sampled_from([None, -1, 0, 1]),
        n=st.integers(0, 400),
        lod_base=st.integers(1, 40),
        lod_scale=st.integers(2, 3),
        nattrs=st.sampled_from([0, 1, 3]),
        pos_type=st.sampled_from(["<f4", "<f8"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_per_chunk_loop(
        self, chunk_size, around, n, lod_base, lod_scale, nattrs, pos_type, seed
    ):
        if around is not None:
            n = max(chunk_size + around, 0)  # 0, 1 and chunk_size +- 1 included
        batch = random_batch(n, pos_type, seed)
        boundaries = prefix_checksum_boundaries(n, lod_base, lod_scale)
        attrs = ATTRS[:nattrs]
        got = build_chunk_entry(batch, chunk_size, boundaries, attrs)
        want = oracle_chunk_entry(batch, chunk_size, boundaries, attrs)
        # Bit for bit: the section is what the table and trailer store.
        assert got.to_section() == oracle_section(want)

    def test_ragged_last_chunk_of_every_level(self):
        batch = random_batch(100, "<f8", 3)
        boundaries = prefix_checksum_boundaries(100, 5, 2)  # 5 15 35 75 100
        got = build_chunk_entry(batch, 4, boundaries, ("density",))
        want = oracle_chunk_entry(batch, 4, boundaries, ("density",))
        assert got.to_section() == oracle_section(want)
        ends = set((got.starts + got.counts).tolist())
        assert set(boundaries) <= ends  # no chunk straddles a level

    def test_empty_batch_and_bad_chunk_size(self):
        empty = build_chunk_entry(random_batch(0, "<f8", 0), 8, [], ATTRS)
        assert len(empty) == 0 and empty.to_section() == oracle_section([])
        with pytest.raises(FormatError):
            build_chunk_entry(random_batch(4, "<f8", 0), 0, [4])


class TestChecksumOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        base=st.integers(1, 40),
        scale=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    def test_equals_naive_crc_per_boundary(self, n, base, scale, seed):
        batch = random_batch(n, "<f8", seed)
        payload = batch.tobytes()
        itemsize = batch.dtype.itemsize
        sums = compute_file_checksums(batch, base, scale)
        assert sums == {
            "payload_crc32": zlib.crc32(payload),
            "prefixes": [
                [b, zlib.crc32(payload[: b * itemsize])]
                for b in prefix_checksum_boundaries(n, base, scale)
            ],
        }

    def test_non_contiguous_batch(self):
        batch = ParticleBatch(random_batch(50, "<f8", 1).data[::2])
        assert compute_file_checksums(batch, 4, 2)["payload_crc32"] == zlib.crc32(
            batch.tobytes()
        )


def _trailer(batch, index, codec=None):
    sums = compute_file_checksums(batch, 8, 2)
    record = MetadataRecord(
        box_id=3,
        agg_rank=4,
        particle_count=len(batch),
        bounds=Box([0, 0, 0], [1, 1, 1]),
        attr_ranges={"density": (-1.0, 2.5)},
        gen=2,
        section=index.to_section() if len(index) else b"",
    )
    return RecoveryTrailer(
        record,
        payload_crc32=sums["payload_crc32"],
        prefixes=tuple(map(tuple, sums["prefixes"])),
        codec=codec,
        dtype_descr=dtype_to_descr(batch.dtype),
        lod_base=8,
        lod_scale=2,
        lod_heuristic="random",
        lod_seed=0,
    )


def oracle_trailer_pieces(trailer) -> list[tuple[str, bytes]]:
    """The binary trailer body spelled out field by field from the layout
    docs/FORMAT.md gives — names, the table's v5 record, the manifest entry,
    then the dataset facts — as named pieces in body order."""
    rec = trailer.record

    def text(s: str) -> bytes:
        return struct.pack("<I", len(s.encode())) + s.encode()

    def descr(items) -> bytes:
        out = struct.pack("<I", len(items))
        for name, fmt, *shape in items:
            dims = shape[0] if shape else []
            out += text(name) + bytes([isinstance(fmt, list)])
            out += descr(fmt) if isinstance(fmt, list) else text(fmt)
            out += struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
        return out

    names = list(rec.attr_ranges)
    seed = trailer.lod_seed
    return [
        ("num_attrs", struct.pack("<I", len(names))),
        *((f"name:{n}", text(n)) for n in names),
        ("record", struct.pack("<4Q6d", rec.box_id, rec.agg_rank, rec.gen,
                               rec.particle_count, *rec.bounds.lo, *rec.bounds.hi)),
        *((f"range:{n}", struct.pack("<2d", *rec.attr_ranges[n])) for n in names),
        ("section_len", struct.pack("<Q", len(rec.section))),
        ("section", rec.section),
        ("facts", struct.pack("<IIQQ", trailer.payload_crc32, len(trailer.prefixes),
                              trailer.lod_base, trailer.lod_scale)),
        *((f"prefix:{c}", struct.pack("<QI", c, crc)) for c, crc in trailer.prefixes),
        ("codec", text(trailer.codec or "")),
        ("heuristic", text(trailer.lod_heuristic)),
        ("seed", struct.pack("<I", 0) if seed is None else struct.pack("<Ib", 1, seed)),
        ("descr", descr(trailer.dtype_descr)),
    ]


def oracle_trailer_body(trailer) -> bytes:
    return b"".join(piece for _name, piece in oracle_trailer_pieces(trailer))


class TestBlobAndTrailerOracle:
    def _index(self, batch, columnar):
        boundaries = prefix_checksum_boundaries(len(batch), 8, 2)
        index = build_chunk_entry(batch, 16, boundaries, ("density",))
        if not columnar:
            return index, batch.tobytes()
        payload, index.segments = encode_columnar_payload(batch, index, "shuffle-zlib")
        return index, payload

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    def test_trailer_bytes_equal_the_rebuilt_list_form(self, columnar):
        batch = random_batch(90, "<f8", 5)
        index, _payload = self._index(batch, columnar)
        trailer = _trailer(batch, index, "shuffle-zlib" if columnar else None)
        body = oracle_trailer_body(trailer)
        assert trailer.to_bytes()[:-TRAILER_FOOTER_BYTES] == body
        assert trailer.to_bytes()[-TRAILER_FOOTER_BYTES:] == struct.pack(
            "<4sII", b"RCVB", len(body), zlib.crc32(body)
        )
        # The record carries the section the table stores, and the entry
        # repair compares hands it out as is.
        assert trailer.record.section == index.to_section()
        assert trailer.checksum_entry["section"] == index.to_section()
        assert RecoveryTrailer.from_bytes(body, "f") == trailer

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    @pytest.mark.parametrize("n", [0, 90])
    def test_blob_is_header_payload_footer_trailer(self, columnar, n):
        batch = random_batch(n, "<f8", 6)
        columnar = columnar and n > 0
        index, payload = self._index(batch, columnar)
        trailer = _trailer(batch, index, "shuffle-zlib" if columnar else None)
        version = DATA_VERSION_COLUMNAR if columnar else DATA_VERSION
        header = struct.pack("<8sIIQ", DATA_MAGIC, version, batch.dtype.itemsize, n)
        footer = struct.pack("<4sI", FOOTER_MAGIC, zlib.crc32(header + payload))
        want = header + payload + footer + trailer.to_bytes()
        got = build_data_blob(
            payload, batch.dtype.itemsize, n, trailer,
            version=version if columnar else None,
        )
        assert got == want
        # A view of the same bytes frames identically (the writer's path).
        assert build_data_blob(
            memoryview(payload), batch.dtype.itemsize, n, trailer,
            version=version if columnar else None,
        ) == want

    def test_plain_v2_blob_has_no_trailer(self):
        batch = random_batch(10, "<f8", 7)
        blob = build_data_blob(batch.tobytes(), batch.dtype.itemsize, 10)
        assert len(blob) == HEADER_BYTES + batch.nbytes + FOOTER_BYTES


class TestManifestText:
    def _manifest(self, generation=0):
        batch = random_batch(200, "<f8", 9)
        sums = compute_file_checksums(batch, 8, 2)
        sums["codec"] = "shuffle-zlib"
        return Manifest(
            dtype=batch.dtype,
            num_files=1,
            total_particles=200,
            lod_base=8,
            writer={"config": {"partition_factor": [2, 2, 1]}, "nprocs": 8},
            checksums={"data/file_0.pbin": sums},
            spatial_meta_crc32=12345,
            generation=generation,
            parent=generation - 1 if generation else None,
        )

    @pytest.mark.parametrize("generation", [0, 2])
    def test_roundtrip_and_whitespace_insignificance(self, generation):
        m = self._manifest(generation)
        text = m.to_json()
        assert Manifest.from_json(text) == m
        assert "\n" not in text and ", " not in text and '": ' not in text
        # The indented form earlier writers produced is the same document.
        indented = json.dumps(json.loads(text), indent=2, sort_keys=True)
        assert json.loads(indented) == json.loads(text)
        assert Manifest.from_json(indented) == m
        assert len(text) < 0.6 * len(indented)


# -- read-once -----------------------------------------------------------------


def rank_batch(rank: int, n: int, seed: int, dtype=MINIMAL_DTYPE) -> ParticleBatch:
    return uniform_particles(
        DECOMP.patch_of_rank(rank), n, dtype=dtype, seed=seed, rank=rank
    )


def collective(
    op: str, backend, seed: int, n: int = 64, config=None, dtype=MINIMAL_DTYPE,
    **run_kwargs,
):
    """One 8-rank ``write`` / ``append`` of ``n`` particles per rank."""
    writer = SpatialWriter(config or WriterConfig(partition_factor=PF))

    def main(comm):
        batch = rank_batch(comm.rank, n, seed, dtype)
        return getattr(writer, op)(comm, batch, DECOMP, backend)

    return run_mpi(NPROCS, main, **run_kwargs)


def chained_backend(appends: int = 1) -> VirtualBackend:
    backend = VirtualBackend()
    collective("write", backend, seed=1)
    for g in range(appends):
        collective("append", backend, seed=2 + g)
    return backend


def reads_of(backend: VirtualBackend, path: str) -> int:
    return sum(1 for op in backend.ops_of_kind("read") if op.path == path)


class TestBaseGenerationIsReadOnce:
    def test_open_dataset_reads_the_head_manifest_once(self):
        backend = chained_backend(appends=2)
        backend.clear_ops()
        ds = open_dataset(backend)
        assert ds.generation == 2
        assert ds.manifest.generation == 2
        assert reads_of(backend, generation_manifest_path(2)) == 1
        assert reads_of(backend, generation_meta_path(2)) == 2  # header, then head
        assert reads_of(backend, CURRENT_PATH) == 1
        # ... and the memoised manifest is the one resolution parsed.
        assert ds.manifest is ds.resolution().manifest

    def test_resolution_before_load_still_reads_once(self):
        backend = chained_backend()
        backend.clear_ops()
        ds = Dataset(backend)  # lazy: nothing read yet
        assert ds.generation == 1  # resolves (and parses) ...
        assert len(SpatialReader(ds).read_full()) == 2 * 8 * 64  # ... then loads
        assert reads_of(backend, generation_manifest_path(1)) == 1

    def test_pinned_and_classic_opens_read_once_too(self):
        backend = chained_backend()
        backend.clear_ops()
        assert open_dataset(backend, generation=0).manifest.generation == 0
        assert reads_of(backend, generation_manifest_path(0)) == 1
        classic = VirtualBackend()
        collective("write", classic, seed=1)
        classic.clear_ops()
        open_dataset(classic)
        assert reads_of(classic, "manifest.json") == 1

    def test_append_reads_the_base_once_in_total(self):
        backend = chained_backend()
        backend.clear_ops()
        results = collective("append", backend, seed=9)
        assert {r.generation for r in results} == {2}
        assert reads_of(backend, generation_manifest_path(1)) == 1
        assert reads_of(backend, generation_meta_path(1)) == 1
        assert reads_of(backend, CURRENT_PATH) == 1
        # Rank 0 alone touched them.
        assert {
            op.actor for op in backend.ops_of_kind("read")
        } <= {-1, 0}
        assert len(SpatialReader(backend).read_full()) == 3 * 8 * 64

    def test_first_append_on_a_classic_dataset_reads_it_once(self):
        backend = VirtualBackend()
        collective("write", backend, seed=1)
        backend.clear_ops()
        collective("append", backend, seed=2)
        assert reads_of(backend, "manifest.json") == 1
        assert reads_of(backend, "spatial.meta") == 1

    def test_load_generation_reuses_a_given_manifest(self):
        backend = chained_backend()
        resolved = resolve_generation(backend)
        backend.clear_ops()
        manifest, meta = load_generation(backend, 1, manifest=resolved.manifest)
        assert manifest is resolved.manifest and len(meta.records) == 4
        assert reads_of(backend, generation_manifest_path(1)) == 0
        assert load_generation(backend, 1)[0] == manifest

    def test_fallback_still_verifies_candidates(self):
        """A damaged CURRENT takes the fallback path, which probes each
        candidate generation structurally (manifest + table) as before and
        hands no half-trusted manifest on."""
        backend = chained_backend(appends=2)
        backend._files[CURRENT_PATH] = b"spio-current 1 2 deadbeef\n"
        backend.clear_ops()
        resolved = resolve_generation(backend)
        assert resolved.fallback and resolved.generation == 2
        assert resolved.manifest is None
        assert reads_of(backend, generation_manifest_path(2)) == 1  # the probe
        assert reads_of(backend, generation_meta_path(2)) == 1
        ds = open_dataset(backend)
        assert ds.generation == 2 and ds.total_particles == 3 * 8 * 64

    def test_resolutions_compare_by_what_was_resolved(self):
        backend = chained_backend()
        a, b = resolve_generation(backend), resolve_generation(backend)
        assert a == b and a.manifest is not b.manifest
        assert "manifest" not in repr(a)


# -- collective failure --------------------------------------------------------


def failing_append(backend, config=None, dtype=MINIMAL_DTYPE):
    """Run an 8-rank append expected to fail; returns the RankFailedError
    and what each rank did (``"returned"`` or the exception it raised)."""
    outcome: dict[int, object] = {}
    writer = SpatialWriter(config or WriterConfig(partition_factor=PF))

    def main(comm):
        try:
            writer.append(comm, rank_batch(comm.rank, 16, 5, dtype), DECOMP, backend)
        except BaseException as exc:
            outcome[comm.rank] = exc
            raise
        outcome[comm.rank] = "returned"

    with pytest.raises(RankFailedError) as info:
        run_mpi(NPROCS, main)
    return info.value, outcome


def assert_collective(err, outcome, kind, message):
    """Every rank raised ``kind(message)`` itself — none returned, none was
    killed as a bystander of another rank's failure, none hung."""
    assert sorted(outcome) == list(range(NPROCS))
    for rank, exc in outcome.items():
        assert type(exc) is kind, (rank, exc)
        assert str(exc) == message, (rank, exc)
    assert sorted(err.failures) == list(range(NPROCS))
    assert str(err) == (
        f"{NPROCS} rank(s) failed (ranks 0, 1, 2, 3, 4, 5, 6, 7); "
        f"first failure: {kind(message)!r}"
    )


class TestAppendFailsCollectively:
    def _base(self):
        backend = chained_backend()
        before = dict(backend._files)
        full = SpatialReader(backend).read_full().data.copy()
        return backend, before, full

    def _assert_base_intact(self, backend, before, full):
        assert backend._files == before
        assert open_dataset(backend).generation == 1
        assert np.array_equal(SpatialReader(backend).read_full().data, full)

    def test_mismatched_lod_parameters(self):
        backend, before, full = self._base()
        err, outcome = failing_append(
            backend, config=WriterConfig(partition_factor=PF, lod_base=99)
        )
        assert_collective(
            err, outcome, ConfigError,
            "append LOD parameters (99, 2) do not match the base "
            "generation's (32, 2)",
        )
        self._assert_base_intact(backend, before, full)

    @pytest.mark.parametrize(
        "override, order",
        [
            ({"lod_seed": 7}, "('random', 7)"),
            ({"lod_heuristic": "stratified"}, "('stratified', 0)"),
        ],
    )
    def test_mismatched_lod_order(self, override, order):
        """The heuristic and seed decide which particles each level holds and
        every base file's trailer repeats them, so an append must match."""
        backend, before, full = self._base()
        err, outcome = failing_append(
            backend, config=WriterConfig(partition_factor=PF, **override)
        )
        assert_collective(
            err, outcome, ConfigError,
            f"append LOD heuristic and seed {order} do not match the base "
            "generation's ('random', 0)",
        )
        self._assert_base_intact(backend, before, full)

    def test_mismatched_attr_index(self):
        backend, before, full = self._base()
        err, outcome = failing_append(
            backend, config=WriterConfig(partition_factor=PF, attr_index=("id",))
        )
        assert_collective(
            err, outcome, ConfigError,
            "append attr_index ('id',) does not match the base generation's ()",
        )
        self._assert_base_intact(backend, before, full)

    def test_mismatched_dtype(self):
        backend, before, full = self._base()
        err, outcome = failing_append(backend, dtype=UINTAH_DTYPE)
        assert_collective(
            err, outcome, ConfigError,
            f"append dtype {UINTAH_DTYPE} does not match the base "
            f"generation's {MINIMAL_DTYPE}",
        )
        self._assert_base_intact(backend, before, full)

    def test_corrupt_base_manifest(self):
        """A classic dataset whose only manifest is torn: there is nothing
        to fall back to, so the append fails with the parse error."""
        rng = np.random.default_rng(FAULT_SEED)
        backend = VirtualBackend()
        collective("write", backend, seed=1)
        raw = backend._files["manifest.json"]
        backend._files["manifest.json"] = raw[: int(rng.integers(1, len(raw) - 1))]
        before = dict(backend._files)
        with pytest.raises(FormatError) as local:
            load_generation(backend, resolve_generation(backend).generation)
        err, outcome = failing_append(backend)
        assert_collective(err, outcome, FormatError, str(local.value))
        assert "manifest is not valid JSON" in str(local.value)
        assert backend._files == before

    def test_damaged_current_and_no_verifiable_generation(self):
        rng = np.random.default_rng(FAULT_SEED)
        backend = chained_backend()
        raw = bytearray(backend._files[CURRENT_PATH])
        raw[int(rng.integers(0, len(raw) - 1))] ^= 0xFF
        backend._files[CURRENT_PATH] = bytes(raw)
        for gen in list_generations(backend):  # tear every candidate
            path = generation_manifest_path(gen)
            text = backend._files[path]
            backend._files[path] = text[: int(rng.integers(1, len(text) - 1))]
        before = dict(backend._files)
        with pytest.raises(FormatError) as local:
            resolve_generation(backend)
        err, outcome = failing_append(backend)
        assert_collective(err, outcome, FormatError, str(local.value))
        assert "no generation on disk fully verifies" in str(local.value)
        assert backend._files == before

    def test_damaged_current_with_a_verifiable_base_still_appends(self):
        """Not a failure: the fallback resolves generation 1 on rank 0 and
        the append commits generation 2 on top of it, on every rank."""
        backend = chained_backend()
        backend._files[CURRENT_PATH] = b"garbage\n"
        results = collective("append", backend, seed=4)
        assert {r.generation for r in results} == {2}
        assert open_dataset(backend).total_particles == 3 * 8 * 64


# -- traffic and determinism ---------------------------------------------------


class RecordingWorld(World):
    """A world that keeps ``(source, dest, channel, tag, nbytes)`` per send."""

    def __init__(self, size, **kwargs):
        super().__init__(size, **kwargs)
        self.sent: list[tuple[int, int, int, int, int]] = []

    def send(self, msg):
        self.sent.append((msg.source, msg.dest, msg.channel, msg.tag, msg.nbytes))
        super().send(msg)


class TestTrafficAndDeterminism:
    N = 2048  # fixture W of the e2e benchmark: 8 ranks x 2048 particles

    def test_collectives_move_almost_nothing_beside_the_payload(self):
        world = RecordingWorld(NPROCS)
        backend = VirtualBackend()
        collective("write", backend, seed=3, n=self.N, dtype=UINTAH_DTYPE, world=world)
        payload = NPROCS * self.N * UINTAH_DTYPE.itemsize
        assert world.stats.total_bytes() <= 1.02 * payload
        # Step 8 is the last collective, and it is one gather: NPROCS - 1
        # messages into rank 0 under one tag, nothing fanned back out.
        coll = [m for m in world.sent if m[2] == CHANNEL_COLL]
        last_tag = coll[-1][3]
        step8 = [m for m in coll if m[3] == last_tag]
        assert sorted(m[0] for m in step8) == list(range(1, NPROCS))
        assert {m[1] for m in step8} == {0}
        # Rank 0 never ships the O(chunks) inventory to anybody.
        assert max(m[4] for m in coll if m[0] == 0) < 256

    def test_append_traffic_is_the_payload_plus_one_small_bcast(self):
        backend = VirtualBackend()
        collective("write", backend, seed=3, n=self.N, dtype=UINTAH_DTYPE)
        world = RecordingWorld(NPROCS)
        collective("append", backend, seed=4, n=self.N, dtype=UINTAH_DTYPE, world=world)
        payload = NPROCS * self.N * UINTAH_DTYPE.itemsize
        assert world.stats.total_bytes() <= 1.02 * payload
        coll = [m for m in world.sent if m[2] == CHANNEL_COLL]
        first_tag = coll[0][3]
        bcast = [m for m in coll if m[3] == first_tag]
        assert [m[:2] for m in bcast] == [(0, d) for d in range(1, NPROCS)]
        assert max(m[4] for m in bcast) < 1024  # facts, not the base inventory

    def _cycle(self, **run_kwargs) -> dict:
        backend = VirtualBackend()
        collective("write", backend, seed=11, n=300, **run_kwargs)
        collective("append", backend, seed=12, n=300, **run_kwargs)
        return dict(backend._files)

    def test_independent_runs_are_byte_identical(self):
        assert self._cycle() == self._cycle()

    def test_output_is_independent_of_scheduling(self):
        """scda's bar: the bytes do not depend on how the work was
        scheduled — here, on how often blocked ranks wake to poll."""
        assert self._cycle(block_timeout=0.01) == self._cycle(block_timeout=0.25)

    def test_columnar_runs_are_byte_identical(self):
        cfg = WriterConfig(
            partition_factor=PF, layout="columnar", codec="shuffle-zlib",
            attr_index=("density",),
        )

        def cycle():
            backend = VirtualBackend()
            collective("write", backend, seed=5, n=200, config=cfg, dtype=UINTAH_DTYPE)
            collective("append", backend, seed=6, n=200, config=cfg, dtype=UINTAH_DTYPE)
            return dict(backend._files)

        assert cycle() == cycle()
