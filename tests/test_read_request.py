"""The flattened read request, on every backend.

``readv`` takes one :class:`~repro.io.ReadRequest`: a file's byte ranges
landing back to back in caller-owned buffers.  The reader hands a whole
plan's runs to the backend as one such request, so every backend must
land it exactly as it would land each range asked for on its own: the
same bytes, the same errors, the same ``io.*`` counters, and — under the
fault injector — bit flips inside run bytes, never in the header.

The fault-plan seed is taken from ``REPRO_FAULT_SEED`` (default 0) so CI
can move the flips across the flattened runs.
"""

import os

import numpy as np
import pytest

from repro.errors import BackendError
from repro.io import (
    CachingBackend,
    DiskCacheBackend,
    FaultInjectingBackend,
    FaultPlan,
    FaultSpec,
    PosixBackend,
    PrefixBackend,
    ReadRequest,
    RemoteBackend,
    ResilientBackend,
    SimulatedTransport,
    VirtualBackend,
)
from repro.obs.names import IO_BYTES_READ, IO_OPENS, IO_READS
from repro.obs.recorder import Recorder

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

PATH = "data/f.pbin"
HEADER = 24
#: Runs past the header as ``(offset, length)``: adjacent, gapped, one
#: long enough for the POSIX backend's GIL-releasing copy, one ending at EOF.
RUNS = ((24, 40), (64, 8), (200, 1), (301, 77), (1000, 70_000), (80_000, 16))
SIZE = 80_016

BACKENDS = (
    "posix", "posix-pread", "virtual", "caching", "diskcache",
    "fault", "resilient", "remote", "prefix",
)


def _blob() -> bytes:
    rng = np.random.default_rng(FAULT_SEED)
    return rng.integers(0, 256, SIZE, dtype=np.uint8).tobytes()


def _build(name, tmp_path):
    """The named backend over a fresh store, and the store's leaf."""
    if name in ("posix", "posix-pread"):
        leaf = PosixBackend(tmp_path / "posix", use_mmap=name == "posix")
        return leaf, leaf
    leaf = VirtualBackend()
    if name == "virtual":
        return leaf, leaf
    if name == "remote":
        remote = RemoteBackend(SimulatedTransport(leaf))
        return remote, remote
    if name == "prefix":
        return PrefixBackend(leaf, "step_0001"), leaf
    if name == "caching":
        return CachingBackend(leaf, 1 << 20), leaf
    if name == "diskcache":
        return DiskCacheBackend(leaf, tmp_path / "dcache", 1 << 20), leaf
    if name == "fault":
        return FaultInjectingBackend(leaf, FaultPlan(seed=FAULT_SEED)), leaf
    return ResilientBackend(leaf), leaf


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    backend, _leaf = _build(request.param, tmp_path)
    backend.write_file(PATH, _blob())
    yield backend
    backend.close()


def flattened(runs=RUNS):
    """``(request, header, landing)``: the header part and every run in
    one landing buffer, the shape the particle reader sends."""
    header = bytearray(HEADER)
    landing = bytearray(sum(n for _o, n in runs))
    request = ReadRequest([
        (header, (0,), (HEADER,)),
        (landing, [o for o, _n in runs], [n for _o, n in runs]),
    ])
    return request, header, landing


def per_range(runs=RUNS):
    """The same ranges, one destination each."""
    views = [bytearray(HEADER)] + [bytearray(n) for _o, n in runs]
    offsets = [0] + [o for o, _n in runs]
    return ReadRequest([(v, (o,), (len(v),)) for o, v in zip(offsets, views)]), views


def counters(backend, request) -> dict:
    recorder = Recorder(rank=-1)
    backend.attach_recorder(recorder)
    try:
        backend.readv(PATH, request)
    finally:
        backend.attach_recorder(None)
    return {
        name: recorder.total(name) for name in (IO_READS, IO_BYTES_READ, IO_OPENS)
    }


class TestFlattenedParity:
    def test_landed_bytes_equal_the_per_range_reads(self, backend):
        blob = _blob()
        request, header, landing = flattened()
        assert backend.readv(PATH, request) == HEADER + len(landing)
        assert bytes(header) == blob[:HEADER]
        pos = 0
        for offset, length in RUNS:
            assert bytes(landing[pos : pos + length]) == backend.read_range(
                PATH, offset, length
            ) == blob[offset : offset + length]
            pos += length

    def test_read_past_eof_raises_the_one_range_error(self, backend):
        past = (SIZE - 5, 10)
        with pytest.raises(BackendError) as one:
            backend.readinto(PATH, past[0], bytearray(past[1]))
        request, _header, _landing = flattened(RUNS[:3] + (past,) + RUNS[3:])
        with pytest.raises(BackendError) as flat:
            backend.readv(PATH, request)
        assert str(flat.value) == str(one.value)
        assert f"wanted 10 bytes at {SIZE - 5}" in str(flat.value)

    def test_negative_offset_refused(self, backend):
        with pytest.raises(BackendError, match=r"negative offset/length \(-8, 4\)"):
            backend.readv(PATH, ReadRequest([(bytearray(8), [0, -8], [4, 4])]))
        with pytest.raises(BackendError, match=r"negative offset/length \(0, -1\)"):
            backend.readv(PATH, ReadRequest([(bytearray(0), [0, 0], [-1, 1])]))

    def test_counters_unchanged(self, backend):
        flat = counters(backend, flattened()[0])
        for tier in (backend, getattr(backend, "base", None)):
            if hasattr(tier, "clear"):
                tier.clear()  # cold again: the second read reaches the leaf too
        backend.close()  # and a pooled handle is dropped: it opens the file again
        split = counters(backend, per_range()[0])
        assert flat == split
        assert flat == {
            IO_READS: 1 + len(RUNS),
            IO_BYTES_READ: HEADER + sum(n for _o, n in RUNS),
            IO_OPENS: 1,
        }


class TestRequestShape:
    def test_one_range_case(self):
        view = bytearray(5)
        request = ReadRequest.one(7, view)
        assert (request.count, request.nbytes, request.end) == (1, 5, 12)
        assert request.ranges() == ([7], [5])

    def test_ranges_must_fill_their_destination(self):
        with pytest.raises(BackendError, match="ranges of 6 bytes for a 8-byte"):
            ReadRequest([(bytearray(8), [0, 10], [3, 3])])
        with pytest.raises(ValueError, match="2 offsets for 1 lengths"):
            ReadRequest([(bytearray(8), [0, 10], [8])])

    def test_end_is_the_furthest_byte(self):
        request = ReadRequest([
            (bytearray(4), (0,), (4,)),
            (bytearray(10), [500, 40], [6, 4]),
        ])
        assert (request.end, request.count, request.nbytes) == (506, 3, 14)


FLIP_SEEDS = range(FAULT_SEED, FAULT_SEED + 8)
#: Short runs, so a flip free to land anywhere would hit the header often.
FLIP_RUNS = ((24, 8), (64, 8), (200, 1), (301, 7))


@pytest.mark.parametrize("leaf", ["posix", "posix-pread", "virtual", "remote"])
@pytest.mark.parametrize("seed", FLIP_SEEDS)
def test_fault_flip_lands_inside_run_bytes(leaf, seed, tmp_path):
    """One injected bit flip per read, always in a run, never the header."""
    base, _store = _build(leaf, tmp_path)
    base.write_file(PATH, _blob())
    faulty = FaultInjectingBackend(
        base, FaultPlan((FaultSpec("bit_flip", path_glob="data/*"),), seed=seed)
    )
    blob = _blob()
    want = b"".join(blob[o : o + n] for o, n in FLIP_RUNS)
    request, header, landing = flattened(FLIP_RUNS)
    faulty.readv(PATH, request)
    assert bytes(header) == blob[:HEADER]
    diff = np.frombuffer(landing, np.uint8) ^ np.frombuffer(want, np.uint8)
    assert int(np.unpackbits(diff).sum()) == 1
    assert faulty.fault_counts["bit_flip"] == 1
    base.close()
