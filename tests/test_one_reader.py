"""The one payload read, ``read_particle_runs_into``, over every read shape.

Whole files, LOD prefixes, progressive slices and pruned chunk runs are all
run lists of one reader.  This suite drives each shape over both layouts,
full and projected dtypes and three backend stacks, and compares every
answer with the matching rows of what was written — decoded here straight
from the file image, not through the reader.  Then one error case per
check the reader makes, each raising the typed error it always raised.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from repro.baselines import UnstructuredReader
from repro.core import SpatialReader, WriterConfig
from repro.domain import Box
from repro.errors import DataChecksumError, DataFileError
from repro.format.chunks import FileChunkIndex, Runs
from repro.format.datafile import (
    DATA_MAGIC,
    HEADER_BYTES,
    columnar_columns,
    columnar_payload_length,
    extract_recovery_trailer,
    read_particle_runs_into,
    write_data_file,
)
from repro.io import PosixBackend, RemoteBackend, SimulatedTransport, VirtualBackend
from repro.particles import uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE, UINTAH_DTYPE
from repro.query.engine import project_dtype

from .conftest import decode_columnar_payload, write_dataset

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
PATH = "data/file_0.pbin"


def written(layout: str) -> VirtualBackend:
    """A two-file dataset with ~20 chunks per file, as the writer lays it out."""
    backend, _, _ = write_dataset(
        nprocs=8,
        particles_per_rank=160,
        dtype=UINTAH_DTYPE,
        config=WriterConfig(
            partition_factor=(2, 2, 1), chunk_size=16,
            layout=layout, codec="shuffle-zlib" if layout == "columnar" else "none",
        ),
    )
    return backend


DATASETS = {layout: written(layout) for layout in ("row", "columnar")}


class File:
    """One data file's image, its chunk index and its rows as written."""

    def __init__(self, layout: str):
        self.store = DATASETS[layout]
        self.raw = bytes(self.store.read_file(PATH))
        trailer = extract_recovery_trailer(self.raw, PATH)
        self.n = trailer.record.particle_count
        self.index = FileChunkIndex.unpack(trailer.record.section, PATH).validated(
            self.n, PATH, trailer.codec
        )
        if trailer.codec is None:
            payload = self.raw[HEADER_BYTES : HEADER_BYTES + self.n * UINTAH_DTYPE.itemsize]
            self.rows = np.frombuffer(payload, dtype=UINTAH_DTYPE)
        else:
            length = columnar_payload_length(self.index)
            self.rows = decode_columnar_payload(
                self.raw[HEADER_BYTES : HEADER_BYTES + length],
                self.index, trailer.codec, UINTAH_DTYPE, PATH,
            )
        assert len(self.index) >= 18

    def chunk_runs(self, ids) -> list[tuple[int, int]]:
        """Coalesced runs over chunks ``ids`` (ascending)."""
        runs: list[list[int]] = []
        for ci in ids:
            start, count = int(self.index.starts[ci]), int(self.index.counts[ci])
            if runs and sum(runs[-1]) == start:
                runs[-1][1] += count
            else:
                runs.append([start, count])
        return [(s, c) for s, c in runs]


FILES = {layout: File(layout) for layout in ("row", "columnar")}

SHAPES = {
    "whole": lambda f: [(0, f.n)],
    "prefix": lambda f: [(0, f.n // 3)],
    "slice": lambda f: [(f.n // 4 + 1, f.n // 3)],
    "pruned-few": lambda f: f.chunk_runs([0, 2, 3, 7]),
    "pruned-many": lambda f: f.chunk_runs(range(1, len(f.index), 2)),
    "empty": lambda f: [],
}

DTYPES = {
    "full": UINTAH_DTYPE,
    "projected": project_dtype(UINTAH_DTYPE, {"position", "density"}),
}


def on_stack(stack: str, store: VirtualBackend, tmp_path):
    """``store``'s files behind one of the backends a read runs on."""
    if stack == "posix":
        backend = PosixBackend(tmp_path / "ds")
        for path, raw in store._files.items():
            backend.write_file(path, raw)
        return backend
    copy = VirtualBackend()
    copy._files = dict(store._files)
    return copy if stack == "virtual" else RemoteBackend(SimulatedTransport(copy))


@pytest.mark.parametrize("stack", ["posix", "virtual", "remote"])
@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("layout", ["row", "columnar"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_equals_what_was_written(tmp_path, shape, layout, dtype, stack):
    f = FILES[layout]
    backend = on_stack(stack, f.store, tmp_path)
    runs = SHAPES[shape](f)
    if shape == "pruned-many":
        assert len(runs) > 8  # the long-run-list path
    want_rows = np.concatenate([f.rows[s : s + c] for s, c in runs] or [f.rows[:0]])
    out_dtype = DTYPES[dtype]
    for index in (f.index, None) if layout == "row" else (f.index,):
        out = np.empty(len(want_rows), dtype=out_dtype)
        skipped: list = []
        got = read_particle_runs_into(
            backend, PATH, UINTAH_DTYPE, index, runs, out, skipped=skipped
        )
        assert got == len(want_rows) and skipped == []
        for name in out_dtype.names:
            assert np.array_equal(out[name], want_rows[name]), name


def test_a_predicted_whole_file_is_one_request():
    """A whole row file the index predicts: header, payload and footer in
    one request, and no size probe; without an index the footer comes
    after the header, with the size."""
    f = FILES["row"]
    transport = SimulatedTransport(on_stack("virtual", f.store, None))
    backend = RemoteBackend(transport)
    for index, requests in ((f.index, 1), (None, 3)):
        out = np.empty(f.n, dtype=UINTAH_DTYPE)
        before = transport.stats.requests
        read_particle_runs_into(backend, PATH, UINTAH_DTYPE, index, [(0, f.n)], out)
        assert out.tobytes() == f.rows.tobytes()
        assert transport.stats.requests - before == requests


def test_empty_runs_read_nothing():
    backend = on_stack("virtual", FILES["row"].store, None)
    backend.clear_ops()
    out = np.empty(0, dtype=UINTAH_DTYPE)
    assert read_particle_runs_into(backend, PATH, UINTAH_DTYPE, None, [], out) == 0
    assert backend.ops_of_kind("read") == []


# -- one error case per check --------------------------------------------------------


def row_file(n: int = 40, version: int = 2, extra: bytes = b"") -> VirtualBackend:
    """A bare row file of format ``version`` (1: no footer)."""
    batch = uniform_particles(Box([0, 0, 0], [1, 1, 1]), n, dtype=MINIMAL_DTYPE, seed=FAULT_SEED)
    backend = VirtualBackend()
    if version == 2:
        write_data_file(backend, PATH, batch)
    else:
        header = struct.pack("<8sIIQ", DATA_MAGIC, version, MINIMAL_DTYPE.itemsize, n)
        backend.write_file(PATH, header + batch.data.tobytes())
    if extra:
        backend.write_file(PATH, bytes(backend.read_file(PATH)) + extra)
    return backend


def read(backend, runs, n, dtype=MINIMAL_DTYPE, index=None, out_dtype=None, **kw):
    out = np.empty(n, dtype=out_dtype or dtype)
    return read_particle_runs_into(backend, PATH, np.dtype(dtype), index, runs, out, **kw)


ROW_ERRORS = {
    "negative-run": (lambda: read(row_file(), [(-2, 5)], 5), DataFileError, r"run \[-2, 3\)"),
    "negative-count": (
        lambda: read(row_file(), [(4, -2), (9, 6)], 4), DataFileError, r"run \[4, 2\)"
    ),
    "past-count": (
        lambda: read(row_file(), [(30, 11)], 11), DataFileError,
        r"run \[30, 41\) exceeds particle count 40",
    ),
    "past-count-many-runs": (
        lambda: read(row_file(), [(i * 4, 2) for i in range(9)] + [(39, 2)], 20),
        DataFileError, r"run \[39, 41\) exceeds particle count 40",
    ),
    "overflow": (
        lambda: read(row_file(), [(0, 10), (20, 10)], 15), DataFileError,
        "runs overflow destination of 15 particles",
    ),
    "underfill": (
        lambda: read(row_file(), [(0, 10)], 15), DataFileError,
        "runs cover 10 particles, destination holds 15",
    ),
    "record-size": (
        lambda: read(row_file(), [(0, 40)], 40, dtype=UINTAH_DTYPE), DataFileError,
        "record size",
    ),
    "v1-exact-size": (
        lambda: read(row_file(version=1, extra=b"\0"), [(0, 40)], 40), DataFileError,
        "expected .* bytes for 40 particles",
    ),
    "v2-exact-size": (
        lambda: read(row_file(extra=b"\0" * 12), [(0, 40)], 40), DataFileError,
        "expected .* bytes for 40 particles",
    ),
    "projected-field": (
        lambda: read(row_file(), [(0, 4)], 4, out_dtype=np.dtype([("density", "<f8")])),
        DataFileError, "projected field 'density' is not in the file dtype",
    ),
}


@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
def test_row_checks_raise_their_typed_errors(case):
    call, error, message = ROW_ERRORS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_v1_file_reads_whole_without_a_footer():
    backend = row_file(version=1)
    assert read(backend, [(0, 40)], 40) == 40
    index = FileChunkIndex(
        np.array([0]), np.array([40]), np.zeros((1, 3)), np.ones((1, 3))
    )  # predicts the whole file: the guessed footer lies past the end
    assert read(backend, [(0, 40)], 40, index=index) == 40


@pytest.mark.parametrize("indexed", [False, True])
def test_truncated_files_raise(indexed):
    backend = row_file()
    raw = bytes(backend.read_file(PATH))
    backend.write_file(PATH, raw[: HEADER_BYTES + 30 * MINIMAL_DTYPE.itemsize])
    index = (
        FileChunkIndex(np.array([0]), np.array([40]), np.zeros((1, 3)), np.ones((1, 3)))
        if indexed else None
    )
    with pytest.raises(DataFileError, match="truncated before particle 35"):
        read(backend, [(0, 5), (30, 5)], 10, index=index)
    with pytest.raises(DataFileError, match="expected .* bytes for 40 particles"):
        read(backend, [(0, 40)], 40, index=index)
    backend.write_file(PATH, raw[:10])
    with pytest.raises(DataFileError, match="truncated header"):
        read(backend, [(0, 5)], 5, index=index)


@pytest.mark.parametrize("where", ["magic", "crc"])
@pytest.mark.parametrize("indexed", [False, True])
def test_whole_file_footer_is_checked(where, indexed):
    backend = row_file()
    raw = bytearray(backend.read_file(PATH))
    end = HEADER_BYTES + 40 * MINIMAL_DTYPE.itemsize
    if where == "magic":
        raw[end : end + 4] = b"XXXX"
    else:
        raw[HEADER_BYTES + FAULT_SEED % (end - HEADER_BYTES)] ^= 0x10
    backend.write_file(PATH, bytes(raw))
    index = (
        FileChunkIndex(np.array([0]), np.array([40]), np.zeros((1, 3)), np.ones((1, 3)))
        if indexed else None
    )
    with pytest.raises(DataChecksumError, match="footer magic" if where == "magic" else "CRC32"):
        read(backend, [(0, 40)], 40, index=index)
    # A prefix never sees the footer (no checksum covers it yet).
    assert read(backend, [(0, 39)], 39, index=index) == 39


def test_layout_mismatches_raise():
    row, col = FILES["row"], FILES["columnar"]
    with pytest.raises(DataFileError, match=r"columnar \(v4\) file read without"):
        read(col.store, [(0, 8)], 8, dtype=UINTAH_DTYPE, index=None)
    with pytest.raises(DataFileError, match=r"expected a columnar \(v4\) file, found version 3"):
        read(row.store, [(0, 16)], 16, dtype=UINTAH_DTYPE, index=col.index)
    short = row.index[:3]  # an index that predicts a shorter file than the header's
    whole = int(short.starts[-1] + short.counts[-1])
    with pytest.raises(DataFileError, match=f"chunk index covers {whole} particles"):
        read(row.store, [(0, whole)], whole, dtype=UINTAH_DTYPE, index=short)


def test_columnar_projected_field_and_run_checks():
    f = FILES["columnar"]
    with pytest.raises(DataFileError, match="projected field 'mass'"):
        read(f.store, [(0, 4)], 4, dtype=UINTAH_DTYPE, index=f.index,
             out_dtype=np.dtype([("mass", "<f8")]))
    with pytest.raises(DataFileError, match=rf"run \[-1, 3\) exceeds particle count {f.n}"):
        read(f.store, [(-1, 4)], 4, dtype=UINTAH_DTYPE, index=f.index)
    with pytest.raises(DataFileError, match=rf"exceeds particle count {f.n}"):
        read(f.store, [(f.n - 2, 4)], 4, dtype=UINTAH_DTYPE, index=f.index)
    with pytest.raises(DataFileError, match="runs cover 4 particles, destination holds 5"):
        read(f.store, [(0, 4)], 5, dtype=UINTAH_DTYPE, index=f.index)
    torn = VirtualBackend()
    torn.write_file(PATH, f.raw[: HEADER_BYTES + columnar_payload_length(f.index) // 2])
    with pytest.raises(DataFileError, match="truncated before the segments"):
        read(torn, [(0, f.n)], f.n, dtype=UINTAH_DTYPE, index=f.index)


@pytest.mark.parametrize("strict", [True, False])
def test_columnar_segment_crc_drops_its_chunk(strict):
    """A bad segment CRC raises in strict mode; degraded, it costs exactly
    its chunk — named in ``skipped`` — and trimming keeps the survivors'
    rows that the runs name."""
    f = FILES["columnar"]
    ci = 1 + FAULT_SEED % 3
    col = [c.name for c in columnar_columns(UINTAH_DTYPE)].index("density")
    off, ln, _crc = f.index.segments[ci, col].tolist()
    raw = bytearray(f.raw)
    raw[HEADER_BYTES + off + ln // 2] ^= 0x40
    backend = VirtualBackend()
    backend.write_file(PATH, bytes(raw))
    runs = [(3, int(f.index.starts[ci + 2]) - 3)]  # mid chunk 0 .. end of ci + 1
    if strict:
        with pytest.raises(DataChecksumError, match=f"chunk {ci} column 'density'"):
            read(backend, runs, runs[0][1], dtype=UINTAH_DTYPE, index=f.index)
        return
    out = np.empty(runs[0][1], dtype=UINTAH_DTYPE)
    skipped: list = []
    got = read_particle_runs_into(
        backend, PATH, UINTAH_DTYPE, f.index, runs, out, strict=False, skipped=skipped
    )
    assert [(c, name) for c, name, _ in skipped] == [(ci, "density")]
    lo, hi = int(f.index.starts[ci]), int(f.index.starts[ci + 1])
    keep = np.r_[3:lo, hi : int(f.index.starts[ci + 2])]
    assert got == len(keep)
    assert out[:got].tobytes() == f.rows[keep].tobytes()


def test_columnar_inflate_failure_is_typed():
    """A segment whose CRC holds but whose stream does not inflate."""
    f = FILES["columnar"]
    col = [c.name for c in columnar_columns(UINTAH_DTYPE)].index("x")
    off, ln, _crc = f.index.segments[0, col].tolist()
    raw = bytearray(f.raw)
    raw[HEADER_BYTES + off : HEADER_BYTES + off + 2] = b"\xff\xff"
    index = FileChunkIndex.unpack(f.index.to_section(), PATH).validated(
        f.n, PATH, f.index.codec
    )
    index.segments[0, col, 2] = zlib.crc32(bytes(raw[HEADER_BYTES + off : HEADER_BYTES + off + ln]))
    backend = VirtualBackend()
    backend.write_file(PATH, bytes(raw))
    with pytest.raises(DataFileError):
        read(backend, [(0, 16)], 16, dtype=UINTAH_DTYPE, index=index)
    out = np.empty(32, dtype=UINTAH_DTYPE)
    skipped: list = []
    got = read_particle_runs_into(
        backend, PATH, UINTAH_DTYPE, index, Runs.of([(0, 32)]), out, strict=False,
        skipped=skipped,
    )
    assert [c for c, _name, _ in skipped] == [0] and got == 16


def test_unstructured_reader_reads_a_columnar_dataset_whose_table_is_lost():
    backend = VirtualBackend()
    backend._files = dict(DATASETS["columnar"]._files)
    want = SpatialReader(backend).read_full()
    backend.delete("spatial.meta")
    got = UnstructuredReader(backend).read_all()
    order = np.argsort(got.data["id"])
    assert got.data[order].tobytes() == np.sort(want.data, order="id").tobytes()

