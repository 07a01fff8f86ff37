"""Columnar chunk payloads (format v4): codecs, projection, pushdown.

The contract under test:

* Per-attribute column segments round-trip through every registered codec;
  a v4 dataset written with the ``none`` codec answers every query
  bit-identically to the same data written as row-major v3.
* ``plan_box_read(attrs=...)`` reads only the named column segments;
  projecting every attribute equals not projecting at all.
* ``plan_box_read(where=...)`` pushes range predicates into file- and
  chunk-level pruning and post-filters exactly — serial, threaded, and
  under injected faults the result equals the post-hoc filter.
* Damage is segment-granular: one flipped byte in one column segment
  degrades exactly that chunk (non-strict), is pinpointed by scrub as a
  ``segment-checksum`` issue naming chunk and column, and repair salvages
  the verified prefix.
* Mixed generation chains (row v3 base + columnar v4 appends) answer
  queries correctly, compact to uniform v4, and survive the append crash
  matrix.

Seeded via ``REPRO_FAULT_SEED`` so CI can sweep the fault matrix.
"""

from __future__ import annotations

import functools
import os
import zlib

import numpy as np
import pytest

from tests.conftest import write_dataset
from repro.core import (
    SpatialReader,
    SpatialWriter,
    WriterConfig,
    compact_dataset,
    repair_dataset,
    scrub_dataset,
)
from repro.core.repair import ACTION_TRUNCATE
from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import (
    ConfigError,
    DataChecksumError,
    DataFileError,
    QueryError,
    RankFailedError,
)
from repro.format.chunks import FileChunkIndex
from repro.format.codecs import (
    available_codecs,
    byte_shuffle,
    byte_unshuffle,
    get_codec,
)
from repro.format.datafile import (
    HEADER_BYTES,
    columnar_columns,
    columnar_payload_length,
    decode_columnar_payload,
    read_particle_runs_into,
)
from repro.format.generations import resolve_generation
from repro.format.metadata import SpatialMetadata
from repro.io import VirtualBackend
from repro.io.executor import executor_for
from repro.io.faults import (
    FaultInjectingBackend,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.mpi import run_mpi
from repro.particles import ParticleBatch, uniform_particles
from repro.particles.dtype import make_particle_dtype

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

NPROCS = 8
PF = (2, 2, 1)  # 8 ranks -> 2 files, split along z
ATTRS = ("energy", "temperature")
DTYPE = make_particle_dtype(extra_scalars=ATTRS)
QUERY_BOX = Box([0.1, 0.1, 0.1], [0.9, 0.9, 0.9])


def make_batch(rank, patch, n=300, seed=7):
    """Uniform positions with spatially-correlated attributes, so file- and
    chunk-level attr ranges are tight enough for pushdown to prune."""
    base = uniform_particles(patch, n, dtype=DTYPE, seed=seed, rank=rank)
    d = base.data.copy()
    d["energy"] = d["position"][:, 2]
    d["temperature"] = 100.0 + 10.0 * d["position"][:, 0]
    return ParticleBatch(d)


def columnar_config(codec="none", chunk_size=64, pf=PF):
    return WriterConfig(
        partition_factor=pf,
        chunk_size=chunk_size,
        attr_index=ATTRS,
        layout="columnar",
        codec=codec,
    )


def row_config(chunk_size=64, pf=PF):
    return WriterConfig(
        partition_factor=pf, chunk_size=chunk_size, attr_index=ATTRS
    )


def write_columnar(codec="none", nprocs=NPROCS, seed=7, backend=None):
    return write_dataset(
        nprocs=nprocs,
        partition_factor=PF,
        config=columnar_config(codec=codec),
        dtype=DTYPE,
        batch_fn=lambda rank, patch: make_batch(rank, patch, seed=seed),
        backend=backend,
    )


def canon(source) -> np.ndarray:
    """Canonical row order by position — stable across file shuffles and
    valid for projected dtypes (which always carry the position)."""
    a = source.data if isinstance(source, ParticleBatch) else np.asarray(source)
    pos = a["position"]
    return a[np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0]))]


def clone(backend: VirtualBackend) -> VirtualBackend:
    out = VirtualBackend()
    out._files = dict(backend._files)
    return out


def data_paths(ds: Dataset) -> list[str]:
    return [rec.file_path for rec in ds.metadata]


def recorded_index(ds: Dataset, path: str) -> FileChunkIndex:
    """The chunk index ``path``'s spatial-table record carries (segment
    table included for columnar files), as recorded."""
    table = SpatialMetadata.read_whole(ds.backend, ds.resolution().meta_path)
    rec = next(r for r in table if r.file_path == path)
    return FileChunkIndex.unpack(rec.section, path)


def corrupt_segment(backend, path, chunk_idx, column):
    """Flip one byte inside chunk ``chunk_idx``'s segment for ``column``;
    returns the particle count of the damaged chunk."""
    ds = Dataset(backend)
    cols = [c.name for c in columnar_columns(ds.manifest.dtype)]
    index = recorded_index(ds, path)
    off, ln, _crc = index.segments[chunk_idx, cols.index(column)].tolist()
    raw = bytearray(backend._files[path])
    raw[HEADER_BYTES + off + ln // 2] ^= 0x40
    backend._files[path] = bytes(raw)
    return int(index.counts[chunk_idx])


# -- codec registry ------------------------------------------------------------


class TestCodecs:
    def test_registry_has_none_and_shuffle_zlib(self):
        names = available_codecs()
        assert "none" in names and "shuffle-zlib" in names

    def test_unknown_codec_raises(self):
        with pytest.raises(ConfigError):
            get_codec("snappy")

    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    def test_shuffle_roundtrip(self, itemsize, rng):
        raw = rng.bytes(itemsize * 37)
        assert byte_unshuffle(byte_shuffle(raw, itemsize), itemsize) == raw

    @pytest.mark.parametrize("name", available_codecs())
    @pytest.mark.parametrize("itemsize", [4, 8])
    def test_codec_roundtrip(self, name, itemsize, rng):
        codec = get_codec(name)
        # Smooth data (the interesting case) and empty input.
        raw = np.linspace(0.0, 1.0, 256).astype(
            f"<f{itemsize}"
        ).tobytes()
        enc = codec.encode(raw, itemsize)
        assert codec.decode(enc, itemsize, len(raw)) == raw
        assert codec.decode(codec.encode(b"", itemsize), itemsize, 0) == b""

    @pytest.mark.parametrize("name", available_codecs())
    @pytest.mark.parametrize("itemsize", [1, 2, 8])
    def test_run_decode_equals_per_segment_decode(self, name, itemsize, rng):
        """inflate-each then one decode_run == decode on every segment."""
        codec = get_codec(name)
        raws = [rng.bytes(itemsize * 24) for _ in range(5)]
        encs = [codec.encode(raw, itemsize) for raw in raws]
        inflated = [
            codec.inflate(memoryview(enc), itemsize, len(raw))
            for enc, raw in zip(encs, raws)
        ]
        run = codec.decode_run(inflated, itemsize)
        assert run.dtype == np.uint8 and run.flags.c_contiguous
        assert run.tobytes() == b"".join(
            codec.decode(enc, itemsize, len(raw)) for enc, raw in zip(encs, raws)
        )

    @pytest.mark.parametrize("name", available_codecs())
    def test_inflate_fails_like_decode(self, name):
        """Wrong lengths (and broken streams) raise the same DataFileError
        text from the run path's per-segment step as from ``decode``."""
        codec = get_codec(name)
        enc = codec.encode(bytes(range(24)), 8)
        cases = [(enc, 8, 16), (codec.encode(bytes(20), 1), 8, 24)]
        if name != "none":
            cases.append((b"\xff\xff" + enc[2:], 8, 24))
        for bad, itemsize, raw_len in cases:
            with pytest.raises(DataFileError) as want:
                codec.decode(bad, itemsize, raw_len)
            with pytest.raises(DataFileError) as got:
                codec.inflate(memoryview(bad), itemsize, raw_len)
            assert str(got.value) == str(want.value)

    def test_shuffle_zlib_compresses_smooth_columns(self):
        codec = get_codec("shuffle-zlib")
        raw = np.linspace(0.0, 1.0, 4096).astype("<f8").tobytes()
        assert len(codec.encode(raw, 8)) < len(raw) // 2


# -- format v4 on disk ---------------------------------------------------------


class TestV4OnDisk:
    @pytest.fixture(scope="class")
    def pair(self):
        """The same particles written row-major v3 and columnar v4."""
        row, _, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, config=row_config(),
            dtype=DTYPE, batch_fn=make_batch,
        )
        col, _, _ = write_columnar(codec="none")
        return row, col

    def test_v4_none_queries_bit_identical_to_v3(self, pair):
        row, col = pair
        for plan_of in (
            lambda r: r.plan_full_read(),
            lambda r: r.plan_box_read(QUERY_BOX),
            lambda r: r.plan_full_read(max_level=1),
        ):
            a = SpatialReader(Dataset(row))
            b = SpatialReader(Dataset(col))
            got_a = canon(a.execute(plan_of(a)))
            got_b = canon(b.execute(plan_of(b)))
            assert np.array_equal(got_a, got_b)

    def test_manifest_carries_segment_descriptors(self, pair):
        _row, col = pair
        ds = Dataset(col)
        ncols = len(columnar_columns(ds.manifest.dtype))
        for path in data_paths(ds):
            entry = ds.manifest.checksums[path]
            assert entry["codec"] == "none"
            raw = col._files[path]
            end = 0
            segments = recorded_index(ds, path).segments
            assert segments is not None and segments.shape[1:] == (ncols, 3)
            for chunk in segments.tolist():
                for off, ln, crc in chunk:
                    assert off == end  # ascending, densely packed
                    seg = raw[HEADER_BYTES + off : HEADER_BYTES + off + ln]
                    assert zlib.crc32(seg) == crc
                    end = off + ln

    def test_row_manifest_entries_have_no_codec(self, pair):
        row, _col = pair
        ds = Dataset(row)
        for path in data_paths(ds):
            assert "codec" not in ds.manifest.checksums[path]

    @pytest.mark.parametrize("codec", available_codecs())
    def test_every_codec_round_trips_full_dataset(self, codec):
        col, _, _ = write_columnar(codec=codec)
        ref, _, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, config=row_config(),
            dtype=DTYPE, batch_fn=make_batch,
        )
        got = canon(SpatialReader(Dataset(col)).read_full())
        want = canon(SpatialReader(Dataset(ref)).read_full())
        assert np.array_equal(got, want)


# -- projection and pushdown ---------------------------------------------------


class TestProjectionPushdown:
    @pytest.fixture(scope="class")
    def col(self):
        backend, _, _ = write_columnar(codec="shuffle-zlib")
        return backend

    def test_projection_of_all_equals_unprojected(self, col):
        reader = SpatialReader(Dataset(col))
        full = reader.execute(reader.plan_box_read(QUERY_BOX), exact=True)
        proj = reader.execute(
            reader.plan_box_read(
                QUERY_BOX, attrs=["energy", "temperature", "id"]
            ),
            exact=True,
        )
        assert proj.dtype == full.dtype
        assert np.array_equal(canon(proj), canon(full))

    def test_projection_subset_dtype_and_values(self, col):
        reader = SpatialReader(Dataset(col))
        full = canon(
            reader.execute(reader.plan_box_read(QUERY_BOX), exact=True)
        )
        proj = canon(
            reader.execute(
                reader.plan_box_read(QUERY_BOX, attrs=["energy"]), exact=True
            )
        )
        assert proj.dtype.names == ("position", "energy")
        assert np.array_equal(proj["position"], full["position"])
        assert np.array_equal(proj["energy"], full["energy"])

    def test_projection_reads_fewer_payload_bytes(self, col):
        ds = Dataset(col)
        reader = ds.reader()
        before = len(col.ops)
        reader.execute(reader.plan_full_read(), exact=False)
        full_bytes = sum(
            op.nbytes for op in col.ops[before:]
            if op.kind == "read" and op.path.startswith("data/")
        )
        before = len(col.ops)
        reader.execute(
            reader.plan_box_read(ds.domain(), attrs=["energy"]), exact=False
        )
        proj_bytes = sum(
            op.nbytes for op in col.ops[before:]
            if op.kind == "read" and op.path.startswith("data/")
        )
        # The test dtype has six equal-width columns and the projection
        # keeps four (x, y, z, energy): payload bytes must drop accordingly.
        assert proj_bytes < full_bytes * 0.85

    def _pushdown_vs_postfilter(self, dataset):
        reader = SpatialReader(dataset)
        lo, hi = 0.2, 0.45
        plain = reader.plan_box_read(QUERY_BOX)
        full = reader.execute(plain, exact=True).data
        expected = full[(full["energy"] >= lo) & (full["energy"] <= hi)]
        pushed = reader.plan_box_read(QUERY_BOX, where={"energy": (lo, hi)})
        got = reader.execute(pushed, exact=True).data
        assert np.array_equal(canon(got), canon(expected))
        return plain, pushed

    def test_pushdown_equals_post_hoc_filter_serial(self, col):
        plain, pushed = self._pushdown_vs_postfilter(Dataset(col))
        # energy == z and the files split along z: the predicate must prune
        # at least at file level, and never plans MORE than the plain read.
        assert pushed.num_files < plain.num_files
        assert pushed.pruned_particles <= plain.pruned_particles

    def test_pushdown_equals_post_hoc_filter_threaded(self, col):
        self._pushdown_vs_postfilter(Dataset(col, executor=executor_for(4)))

    def test_pushdown_equals_post_hoc_filter_under_faults(self, col):
        faulty = FaultInjectingBackend(
            clone(col),
            FaultPlan.transient_reads(
                heal_after=1, path_glob="data/*", seed=FAULT_SEED
            ),
        )
        self._pushdown_vs_postfilter(Dataset(faulty))
        assert faulty.fault_counts["transient"] > 0

    def test_pushdown_on_row_dataset_matches(self):
        row, _, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, config=row_config(),
            dtype=DTYPE, batch_fn=make_batch,
        )
        self._pushdown_vs_postfilter(Dataset(row))

    def test_projection_composes_with_pushdown(self, col):
        reader = SpatialReader(Dataset(col))
        full = reader.execute(reader.plan_box_read(QUERY_BOX), exact=True).data
        expected = full[(full["temperature"] >= 100.0)
                        & (full["temperature"] <= 104.0)]
        plan = reader.plan_box_read(
            QUERY_BOX, attrs=["energy"],
            where={"temperature": (100.0, 104.0)},
        )
        got = reader.execute(plan, exact=True).data
        # The where-attribute is implicitly projected alongside the ask.
        assert set(got.dtype.names) == {"position", "energy", "temperature"}
        for name in got.dtype.names:
            assert np.array_equal(canon(got)[name], canon(expected)[name])

    def test_plan_validation_errors(self, col):
        reader = SpatialReader(Dataset(col))
        with pytest.raises(QueryError):
            reader.plan_box_read(QUERY_BOX, attrs=["entropy"])
        with pytest.raises(QueryError):
            reader.plan_box_read(QUERY_BOX, where={"position": (0, 1)})
        with pytest.raises(QueryError):
            reader.plan_box_read(QUERY_BOX, where={"energy": (1.0, 0.0)})

    def test_warm_cache_serves_repeat_query_without_backend_io(self, col):
        inner = clone(col)
        ds = Dataset(inner, cache_bytes=8 * 2**20)
        reader = ds.reader()

        def run():
            return reader.execute(
                reader.plan_box_read(
                    QUERY_BOX, attrs=["energy"],
                    where={"energy": (0.2, 0.45)},
                ),
                exact=True,
            )

        first = run()
        before = len(inner.ops)
        second = run()
        again = [
            op for op in inner.ops[before:]
            if op.kind == "read" and op.path.startswith("data/")
        ]
        assert not again, again
        assert np.array_equal(canon(first), canon(second))


# -- segment-granular damage ---------------------------------------------------


class TestSegmentDamage:
    def _damaged(self, codec="shuffle-zlib"):
        backend, _, _ = write_columnar(codec=codec)
        ds = Dataset(backend)
        path = data_paths(ds)[0]
        lost = corrupt_segment(backend, path, chunk_idx=1, column="energy")
        return backend, path, lost

    def test_strict_read_raises(self):
        backend, _path, _lost = self._damaged()
        reader = SpatialReader(Dataset(backend))
        with pytest.raises(DataChecksumError):
            reader.read_full()

    def test_nonstrict_read_degrades_by_exactly_one_chunk(self):
        backend, _path, lost = self._damaged()
        ds = Dataset(backend, strict=False)
        reader = ds.reader()
        total = ds.total_particles
        got = reader.read_full()
        report = reader.last_report
        assert len(got) == total - lost
        assert report.chunks_skipped == 1
        assert not report.complete

    def test_projection_avoiding_damaged_column_still_reads(self):
        """Damage isolation: a query that never touches the flipped
        column's segments is complete."""
        backend, _path, _lost = self._damaged()
        ds = Dataset(backend, strict=False)
        reader = ds.reader()
        got = reader.execute(
            reader.plan_box_read(ds.domain(), attrs=["temperature"])
        )
        assert len(got) == ds.total_particles
        assert reader.last_report.complete

    def test_scrub_pinpoints_chunk_and_column(self):
        backend, path, _lost = self._damaged()
        report = scrub_dataset(Dataset(backend))
        issues = [i for i in report.issues if i.code == "segment-checksum"]
        assert len(issues) == 1
        assert issues[0].path == path
        assert "chunk 1" in issues[0].detail
        assert "'energy'" in issues[0].detail

    def test_repair_salvages_and_scrub_exits_clean(self):
        backend, path, _lost = self._damaged()
        before = Dataset(backend).total_particles
        report = repair_dataset(Dataset(backend))
        truncs = [a for a in report.actions if a.kind == ACTION_TRUNCATE]
        assert truncs and truncs[0].path == path
        assert report.particles_lost > 0
        assert scrub_dataset(Dataset(backend)).ok
        ds = Dataset(backend)
        reader = ds.reader()
        got = reader.read_full()
        assert reader.last_report.complete
        assert len(got) == ds.total_particles < before

    def test_injected_bit_flip_degrades_only_one_chunk(self):
        """Satellite regression: a FaultPlan bit flip lands in encoded
        segment bytes (never the header), so non-strict reads lose at most
        the one chunk whose segment it hit — not the file."""
        backend, _, _ = write_columnar(codec="shuffle-zlib")
        total = Dataset(backend).total_particles
        faulty = FaultInjectingBackend(
            clone(backend),
            FaultPlan(
                (
                    FaultSpec(
                        "bit_flip", path_glob="data/*.pbin", max_triggers=1
                    ),
                ),
                seed=FAULT_SEED,
            ),
        )
        ds = Dataset(faulty, strict=False)
        reader = ds.reader()
        got = reader.read_full()
        report = reader.last_report
        assert faulty.fault_counts["bit_flip"] == 1
        assert report.chunks_skipped == 1
        assert total - len(got) <= 64  # one chunk at most

    def test_none_codec_damage_is_also_chunk_granular(self):
        backend, _path, lost = self._damaged(codec="none")
        ds = Dataset(backend, strict=False)
        reader = ds.reader()
        got = reader.read_full()
        assert len(got) == ds.total_particles - lost
        assert reader.last_report.chunks_skipped == 1


# -- run decode vs the per-segment reference -----------------------------------

#: A subarray column, a narrow integer and a float32 beside the scalars, so
#: every scatter shape and shuffle stride is exercised.
RUN_DTYPE = np.dtype(
    [
        ("position", "<f8", (3,)),
        ("spin", "<f4", (5,)),
        ("density", "<f8"),
        ("kind", "<i2"),
    ]
)
RUN_PROJECTIONS = (
    RUN_DTYPE,
    np.dtype([("position", "<f8", (3,)), ("spin", "<f4", (5,))]),
    np.dtype([("position", "<f8", (3,)), ("density", "<f8"), ("kind", "<i2")]),
)


@functools.lru_cache(maxsize=None)
def _run_dataset(codec) -> VirtualBackend:
    def batch(rank, patch):
        rng = np.random.default_rng(100 + rank)
        d = uniform_particles(
            patch, 300, dtype=RUN_DTYPE, seed=7, rank=rank
        ).data.copy()
        d["spin"] = rng.normal(size=(300, 5))
        d["density"] = rng.random(300)
        d["kind"] = rng.integers(-5, 5, 300)
        return ParticleBatch(d)

    # 48 does not divide the LOD level sizes (32, 64, 128, ...), so every
    # level ends in a short tail chunk: counts are ragged.
    backend, _, _ = write_dataset(
        nprocs=NPROCS,
        partition_factor=PF,
        config=WriterConfig(
            partition_factor=PF, chunk_size=48, layout="columnar", codec=codec
        ),
        dtype=RUN_DTYPE,
        batch_fn=batch,
    )
    return backend


class RunFile:
    """One data file of a written v4 dataset (a private copy, free to
    damage), with what the run reader needs (backend, path, chunk index)
    and what the reference needs (the stored payload, the recorded index
    and its ``(start, count)`` chunk pairs)."""

    def __init__(self, codec):
        self.backend = clone(_run_dataset(codec))
        ds = Dataset(self.backend)
        self.rec = ds.metadata.records[0]
        self.path = self.rec.file_path
        self.codec = codec
        self.recorded = recorded_index(ds, self.path)
        self.chunks = list(
            zip(self.recorded.starts.tolist(), self.recorded.counts.tolist())
        )
        self.cols = columnar_columns(RUN_DTYPE)

    def index(self):
        return FileChunkIndex.unpack(self.recorded.to_section(), self.path).validated(
            self.rec.particle_count, self.path, codec=self.codec
        )

    def reference_rows(self) -> np.ndarray:
        """Every row of the file through ``decode_columnar_payload`` — one
        ``Codec.decode`` per segment."""
        image = self.backend._files[self.path]
        length = columnar_payload_length(self.recorded)
        return decode_columnar_payload(
            image[HEADER_BYTES : HEADER_BYTES + length],
            self.recorded, self.codec, RUN_DTYPE, self.path,
        )

    def chunk_runs(self, ids) -> list[tuple[int, int]]:
        """Coalesced runs over the chunks ``ids`` (ascending)."""
        runs: list[list[int]] = []
        for ci in ids:
            start, count = self.chunks[ci][0], self.chunks[ci][1]
            if runs and runs[-1][0] + runs[-1][1] == start:
                runs[-1][1] += count
            else:
                runs.append([start, count])
        return [(s, c) for s, c in runs]

    def rows_of(self, rows, ids, out_dtype) -> np.ndarray:
        picked = np.concatenate(
            [rows[self.chunks[ci][0] : self.chunks[ci][0] + self.chunks[ci][1]]
             for ci in ids]
        )
        out = np.empty(len(picked), dtype=out_dtype)
        for name in out_dtype.names:
            out[name] = picked[name]
        return out

    def damage(self, ci, column, mode) -> tuple[int, str, str]:
        """Damage one stored segment; returns the ``skipped`` triple a
        degraded read must report for it.

        ``crc``: one flipped byte, the descriptor's CRC no longer matches.
        ``stream``: the zlib header is overwritten *and* the descriptor's
        CRC re-stamped, so the CRC passes and the inflate fails.
        """
        j = [c.name for c in self.cols].index(column)
        off, ln, crc = self.recorded.segments[ci, j].tolist()
        raw = bytearray(self.backend._files[self.path])
        lo = HEADER_BYTES + off
        if mode == "crc":
            raw[lo + ln // 2] ^= 0x40
            actual = zlib.crc32(bytes(raw[lo : lo + ln]))
            why = (
                f" segment CRC32 mismatch — stored {crc:#010x}, "
                f"computed {actual:#010x}"
            )
        else:
            raw[lo : lo + 2] = b"\xff\xff"
            self.recorded.segments[ci, j, 2] = zlib.crc32(bytes(raw[lo : lo + ln]))
            col = self.cols[j]
            with pytest.raises(DataFileError) as err:
                get_codec(self.codec).decode(
                    bytes(raw[lo : lo + ln]), col.itemsize,
                    self.chunks[ci][1] * col.nbytes,
                )
            why = f": {err.value}"
        self.backend._files[self.path] = bytes(raw)
        return (ci, column, f"chunk {ci} column {column!r}{why}")

    def read(self, runs, out_dtype, strict=True):
        total = sum(c for _s, c in runs)
        out = np.empty(total, dtype=out_dtype)
        skipped: list = []
        got = read_particle_runs_into(
            self.backend, self.path, RUN_DTYPE, self.index(), runs, out,
            strict=strict, skipped=skipped,
        )
        return out[:got], skipped


@pytest.mark.parametrize("codec", ["none", "shuffle-zlib"])
class TestRunDecode:
    def test_chunk_counts_are_ragged(self, codec):
        counts = {c[1] for c in RunFile(codec).chunks}
        assert len(counts) >= 3 and 48 in counts

    @pytest.mark.parametrize("out_dtype", RUN_PROJECTIONS, ids=["all", "spin", "scalars"])
    def test_runs_equal_per_segment_reference(self, codec, out_dtype):
        f = RunFile(codec)
        rows = f.reference_rows()
        n = len(f.chunks)
        rng = np.random.default_rng(FAULT_SEED)
        selections = [
            list(range(n)),                       # the whole file, one run
            list(range(0, n, 2)),                 # alternating: no two merge
            [0, 1, 2, n - 3, n - 2, n - 1],       # head + tail stretches
            sorted(rng.choice(n, n // 2, replace=False).tolist()),
            [n - 1],                              # a lone ragged tail chunk
        ]
        for ids in selections:
            got, skipped = f.read(f.chunk_runs(ids), out_dtype)
            assert skipped == []
            assert np.array_equal(got, f.rows_of(rows, ids, out_dtype))

    def test_misaligned_runs_round_out(self, codec):
        """Runs that miss chunk boundaries decode their covering chunks and
        are trimmed to exactly the rows they name."""
        f = RunFile(codec)
        rows = f.reference_rows()
        first, n = f.chunks[0][1], f.rec.particle_count
        for runs in (
            [(1, first)],                          # straddles chunks 0 and 1
            [(0, first - 1)],                      # stops inside chunk 0
            [(2, 3), (7, 4), (first + 1, 5)],      # two runs share chunk 0
            [(n - 5, 5)],                          # the tail's last rows
        ):
            got, skipped = f.read(runs, RUN_DTYPE)
            assert skipped == []
            want = np.concatenate([rows[s : s + c] for s, c in runs])
            assert np.array_equal(got, want)

    def test_misaligned_and_overflowing_runs_are_rejected(self, codec):
        """Runs that reach outside the file's particles, and destinations of
        the wrong size, raise."""
        f = RunFile(codec)
        first, n = f.chunks[0][1], f.rec.particle_count
        with pytest.raises(DataFileError, match=rf"run \[0, {n + 1}\) exceeds particle count {n}"):
            f.read([(0, n + 1)], RUN_DTYPE)
        with pytest.raises(DataFileError, match=rf"run \[-1, {first - 1}\) exceeds"):
            f.read([(-1, first)], RUN_DTYPE)
        for size, message in ((3, "runs overflow destination of 3"), (first + 1, "runs cover")):
            out = np.empty(size, dtype=RUN_DTYPE)
            with pytest.raises(DataFileError, match=message):
                read_particle_runs_into(f.backend, f.path, RUN_DTYPE, f.index(), [(0, first)], out)

    @pytest.mark.parametrize("mode", ["crc", "stream"])
    @pytest.mark.parametrize("column", ["x", "density"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_degraded_read_drops_exactly_the_damaged_chunk(
        self, codec, mode, column, where
    ):
        if mode == "stream" and codec == "none":
            pytest.skip("the identity codec has no stream to damage")
        f = RunFile(codec)
        rows = f.reference_rows()
        ids = list(range(2, len(f.chunks), 3))
        victim = {"first": ids[0], "middle": ids[len(ids) // 2], "last": ids[-1]}[where]
        triple = f.damage(victim, column, mode)
        runs = f.chunk_runs(ids)
        with pytest.raises(DataChecksumError if mode == "crc" else DataFileError) as err:
            f.read(runs, RUN_DTYPE)
        assert triple[2].split(": ", 1)[-1] in str(err.value)
        got, skipped = f.read(runs, RUN_DTYPE, strict=False)
        assert skipped == [triple]
        survivors = [ci for ci in ids if ci != victim]
        assert np.array_equal(got, f.rows_of(rows, survivors, RUN_DTYPE))

    def test_first_failing_column_wins_and_chunks_ascend(self, codec):
        f = RunFile(codec)
        rows = f.reference_rows()
        ids = list(range(len(f.chunks)))
        late = f.damage(ids[-2], "kind", "crc")
        f.damage(ids[4], "density", "crc")
        early = f.damage(ids[4], "y", "crc")  # before density in projection order
        got, skipped = f.read(f.chunk_runs(ids), RUN_DTYPE, strict=False)
        assert skipped == [early, late]
        survivors = [ci for ci in ids if ci not in (ids[4], ids[-2])]
        assert np.array_equal(got, f.rows_of(rows, survivors, RUN_DTYPE))
        # A projection that leaves out the damaged columns never sees them.
        got, skipped = f.read(f.chunk_runs(ids), RUN_PROJECTIONS[1], strict=False)
        assert [s[:2] for s in skipped] == [(ids[4], "y")]


# -- mixed generation chains ---------------------------------------------------


def append_layer(backend, decomp, seed, config, n=150):
    writer = SpatialWriter(config)

    def main(comm):
        patch = decomp.patch_of_rank(comm.rank)
        return writer.append(
            comm, make_batch(comm.rank, patch, n=n, seed=seed), decomp, backend
        )

    return run_mpi(NPROCS, main)


class TestMixedChain:
    @pytest.fixture(scope="class")
    def mixed(self):
        """Gen 0 row v3 + one columnar shuffle-zlib append."""
        backend, decomp, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, config=row_config(),
            dtype=DTYPE, batch_fn=make_batch, particles_per_rank=300,
        )
        append_layer(
            backend, decomp, seed=41,
            config=columnar_config(codec="shuffle-zlib"),
        )
        return backend, decomp

    def test_query_parity_across_mixed_chain(self, mixed):
        backend, _ = mixed
        reader = SpatialReader(Dataset(backend))
        got = canon(reader.read_full())
        gen0 = SpatialReader(Dataset(backend, generation=0)).read_full().data
        appended = np.concatenate(
            [
                make_batch(r, d, n=150, seed=41).data
                for r, d in (
                    (r, mixed[1].patch_of_rank(r)) for r in range(NPROCS)
                )
            ]
        )
        want = canon(np.concatenate([gen0, appended]))
        assert np.array_equal(got, want)

    def test_pushdown_spans_row_and_columnar_generations(self, mixed):
        backend, _ = mixed
        reader = SpatialReader(Dataset(backend))
        full = reader.execute(reader.plan_box_read(QUERY_BOX), exact=True).data
        expected = full[(full["energy"] >= 0.3) & (full["energy"] <= 0.6)]
        got = reader.execute(
            reader.plan_box_read(QUERY_BOX, where={"energy": (0.3, 0.6)}),
            exact=True,
        ).data
        assert np.array_equal(canon(got), canon(expected))

    def test_compaction_converges_to_uniform_v4(self, mixed):
        backend, _ = mixed
        b = clone(backend)
        before = canon(SpatialReader(Dataset(b)).read_full())
        report = compact_dataset(Dataset(b), target_files=1)
        assert report.files_after == 1
        ds = Dataset(b)
        # Committed config is the columnar appender's: everything is v4 now.
        for path in data_paths(ds):
            assert ds.manifest.checksums[path]["codec"] == "shuffle-zlib"
        assert np.array_equal(before, canon(SpatialReader(ds).read_full()))
        assert scrub_dataset(ds).ok

    def test_scrub_and_repair_across_mixed_chain(self, mixed):
        backend, _ = mixed
        b = clone(backend)
        ds = Dataset(b)
        v4_paths = [
            p for p in data_paths(ds)
            if ds.manifest.checksums[p].get("codec") is not None
        ]
        assert v4_paths, "chain should contain columnar files"
        lost = corrupt_segment(b, v4_paths[0], chunk_idx=0, column="x")
        assert lost > 0
        issues = scrub_dataset(Dataset(b)).issues
        assert any(i.code == "segment-checksum" for i in issues)
        report = repair_dataset(Dataset(b))
        assert report.exit_code in (0, 1)  # converged, possibly with loss
        assert scrub_dataset(Dataset(b)).ok
        reader = Dataset(b).reader()
        reader.read_full()
        assert reader.last_report.complete


# -- crash matrix over columnar appends ----------------------------------------


class TestColumnarAppendCrashMatrix:
    def test_crash_at_every_op_converges(self):
        backend, decomp, _ = write_dataset(
            nprocs=NPROCS, partition_factor=PF, config=row_config(),
            dtype=DTYPE, batch_fn=make_batch, particles_per_rank=80,
        )
        cfg = columnar_config(codec="shuffle-zlib", chunk_size=32)

        probe = FaultInjectingBackend(clone(backend), FaultPlan())
        append_layer(probe, decomp, seed=909, config=cfg, n=40)
        total = probe.writes_completed + probe.deletes_completed
        assert 3 <= total <= 24, total

        base = canon(SpatialReader(Dataset(backend)).read_full())
        for k in range(total):
            inner = clone(backend)
            faulty = FaultInjectingBackend(
                inner, FaultPlan.crash_after_ops(k, seed=FAULT_SEED)
            )
            with pytest.raises((RankFailedError, InjectedCrashError)):
                append_layer(faulty, decomp, seed=909, config=cfg, n=40)
            assert faulty.fault_counts["crash"] >= 1, f"op {k}"
            # Atomicity: gen 0 or gen 1, never a torn mix.
            assert resolve_generation(inner).generation in (0, 1), f"op {k}"
            report = repair_dataset(Dataset(inner))
            assert report.exit_code == 0, (k, report.summary_lines())
            assert scrub_dataset(Dataset(inner)).ok, f"op {k}"
            got = canon(SpatialReader(Dataset(inner)).read_full())
            assert len(got) in (len(base), len(base) + NPROCS * 40), f"op {k}"
            # Gen 0 stays bit-identical under any crash + repair.
            got0 = canon(
                SpatialReader(Dataset(inner, generation=0)).read_full()
            )
            assert np.array_equal(got0, base), f"op {k}"
