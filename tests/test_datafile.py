"""Data-file format tests."""

import zlib

import numpy as np
import pytest

from repro.baselines.reader import read_whole_file
from repro.domain import Box
from repro.errors import DataFileError
from repro.format.chunks import Runs
from repro.format.datafile import (
    FOOTER_BYTES,
    HEADER_BYTES,
    build_data_blob,
    crc32_combine,
    parse_data_header,
    read_particle_runs_into,
    write_data_file,
)
from repro.format.metadata import data_file_name
from repro.io import VirtualBackend
from repro.particles import ParticleBatch, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE, UINTAH_DTYPE


def read_slice(backend, count, offset=0, path="data/f.pbin", dtype=MINIMAL_DTYPE):
    """``count`` particles from ``offset`` on: one run of the one reader."""
    out = np.empty(max(count, 0), dtype=dtype)
    read_particle_runs_into(backend, path, dtype, None, ((offset, count),), out)
    return ParticleBatch(out)


@pytest.fixture
def backend():
    return VirtualBackend()


@pytest.fixture
def batch():
    return uniform_particles(Box([0, 0, 0], [1, 1, 1]), 100, dtype=MINIMAL_DTYPE, seed=9)


class TestNaming:
    def test_name_from_agg_rank(self):
        # Fig. 4: "Agg rank is used to derive the name of the data file".
        assert data_file_name(0) == "data/file_0.pbin"
        assert data_file_name(12) == "data/file_12.pbin"

    def test_negative_rank_rejected(self):
        with pytest.raises(DataFileError):
            data_file_name(-1)


class TestRoundTrip:
    def test_write_read(self, backend, batch):
        nbytes = write_data_file(backend, "data/f.pbin", batch)
        assert nbytes == HEADER_BYTES + batch.nbytes + FOOTER_BYTES
        again = read_whole_file(backend, "data/f.pbin", MINIMAL_DTYPE)
        assert again == batch

    def test_empty_batch(self, backend):
        empty = ParticleBatch.empty(MINIMAL_DTYPE)
        write_data_file(backend, "data/e.pbin", empty)
        assert len(read_whole_file(backend, "data/e.pbin", MINIMAL_DTYPE)) == 0

    def test_uintah_dtype(self, backend):
        b = uniform_particles(Box([0, 0, 0], [1, 1, 1]), 50, dtype=UINTAH_DTYPE, seed=1)
        write_data_file(backend, "data/u.pbin", b)
        assert read_whole_file(backend, "data/u.pbin", UINTAH_DTYPE) == b

    def test_peek_count(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        assert parse_data_header(backend.read_file("data/f.pbin"), "data/f.pbin")[2] == 100


class TestPrefixReads:
    def test_prefix_is_head_of_file(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        prefix = read_slice(backend, 30)
        assert prefix == batch[0:30]

    def test_offset_slice(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        mid = read_slice(backend, 20, offset=50)
        assert mid == batch[50:70]

    def test_zero_count(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        assert len(read_slice(backend, 0)) == 0

    def test_slice_past_end_raises(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        with pytest.raises(DataFileError):
            read_slice(backend, 101)
        with pytest.raises(DataFileError):
            read_slice(backend, 50, offset=60)

    def test_negative_rejected(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        with pytest.raises(DataFileError):
            read_slice(backend, -1)

    def test_prefix_reads_only_needed_bytes(self, batch):
        vb = VirtualBackend()
        write_data_file(vb, "data/f.pbin", batch)
        vb.clear_ops()
        read_slice(vb, 10)
        read_bytes = sum(op.nbytes for op in vb.ops_of_kind("read"))
        assert read_bytes == HEADER_BYTES + 10 * MINIMAL_DTYPE.itemsize


class TestRunReads:
    """``read_particle_runs_into``: many runs, one readv, validated whole."""

    def _read(self, backend, runs, n):
        out = np.empty(n, dtype=MINIMAL_DTYPE)
        got = read_particle_runs_into(backend, "data/f.pbin", MINIMAL_DTYPE, None, runs, out)
        return out, got

    def test_runs_land_in_order(self, batch):
        vb = VirtualBackend()
        write_data_file(vb, "data/f.pbin", batch)
        vb.clear_ops()
        runs = [(3, 4), (20, 1), (21, 9), (90, 10)]
        out, got = self._read(vb, runs, 24)
        assert got == 24
        assert np.array_equal(
            out, np.concatenate([batch.data[s : s + c] for s, c in runs])
        )
        # The header and each run: one ranged read apiece, nothing more.
        reads = vb.ops_of_kind("read")
        assert sorted(op.nbytes for op in reads) == sorted(
            [HEADER_BYTES] + [c * MINIMAL_DTYPE.itemsize for _s, c in runs]
        )
        # The array form the planner produces reads the same.
        again, _ = self._read(vb, Runs.of(runs), 24)
        assert np.array_equal(again, out)

    def test_empty_runs_and_zero_count_runs(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        assert self._read(backend, [], 0)[1] == 0
        out, got = self._read(backend, [(5, 0), (7, 2)], 2)
        assert got == 2 and np.array_equal(out, batch.data[7:9])

    @pytest.mark.parametrize(
        "runs,n,message",
        [
            ([(0, 10), (95, 6)], 16, r"run \[95, 101\) exceeds particle count 100"),
            ([(-1, 4)], 4, r"run \[-1, 3\) exceeds particle count 100"),
            ([(4, -2), (9, 6)], 4, r"run \[4, 2\) exceeds particle count 100"),
            ([(0, 10), (20, 10)], 15, "runs overflow destination of 15 particles"),
            ([(0, 10)], 15, "runs cover 10 particles, destination holds 15"),
            ([(0, 500)], 500, r"run \[0, 500\) exceeds particle count 100"),
        ],
    )
    def test_invalid_plans_raise(self, backend, batch, runs, n, message):
        write_data_file(backend, "data/f.pbin", batch)
        with pytest.raises(DataFileError, match=message):
            self._read(backend, runs, n)


class TestCorruption:
    def test_bad_magic(self, backend):
        backend.write_file("data/bad.pbin", b"NOTMAGIC" + bytes(16))
        with pytest.raises(DataFileError, match="magic"):
            read_slice(backend, 1, path="data/bad.pbin")

    def test_truncated_header(self, backend):
        backend.write_file("data/short.pbin", b"SPIO")
        with pytest.raises(DataFileError, match="truncated"):
            read_slice(backend, 1, path="data/short.pbin")

    def test_truncated_payload(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        raw = backend.read_file("data/f.pbin")
        backend.write_file("data/f.pbin", raw[:-8])
        with pytest.raises(DataFileError, match="expected"):
            read_slice(backend, 100)

    def test_dtype_mismatch_detected(self, backend, batch):
        write_data_file(backend, "data/f.pbin", batch)
        with pytest.raises(DataFileError, match="record size"):
            read_slice(backend, 100, dtype=UINTAH_DTYPE)

    def test_peek_on_non_datafile(self, backend):
        backend.write_file("data/x.pbin", b"garbage-garbage-garbage-")
        with pytest.raises(DataFileError):
            parse_data_header(backend.read_file("data/x.pbin"), "data/x.pbin")


class TestCrc32Combine:
    """The writer derives each footer's CRC from the payload CRC it already
    has; the combine must equal zlib's one pass over the joined bytes."""

    @pytest.mark.parametrize(
        "len2", [0, 1, 7, 8, 24, 1023, 65_537, (1 << 20) - 1, (1 << 20) + 13]
    )
    def test_equals_zlib_over_the_joined_bytes(self, len2):
        rng = np.random.default_rng(len2)
        a = rng.integers(0, 256, HEADER_BYTES, dtype=np.uint8).tobytes()
        b = rng.integers(0, 256, len2, dtype=np.uint8).tobytes()
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len2) == zlib.crc32(a + b)

    @pytest.mark.parametrize("len1", [0, 1, 5])
    def test_any_first_part(self, len1):
        a, b = bytes(range(len1)), b"\xff" * 333
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @pytest.mark.parametrize("count", [0, 1, 100])
    def test_blob_with_a_known_payload_crc_is_byte_identical(self, batch, count):
        payload = batch.data[:count].tobytes()
        itemsize = batch.dtype.itemsize
        combined = build_data_blob(
            payload, itemsize, count, payload_crc32=zlib.crc32(payload)
        )
        assert combined == build_data_blob(payload, itemsize, count)
