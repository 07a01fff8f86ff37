"""The raw-speed read path must be invisible except for being fast.

Three optimisations ride under the unchanged :class:`FileBackend`
contract — the pooled-handle mmap/preadv fast path in
:class:`PosixBackend`, the vectorized whole-run decode, and the
process-pool executor that ships CRC+decode off the GIL.  This suite pins
the interchangeability contract: mmap on/off, buffered pread, thread
pools, and process pools all produce bit-identical batches, equal
``ReadReport`` ledgers, and the same span/event streams — including under
on-disk corruption (degraded skips), fault-injecting wrappers, and warm
caches (where the process executor must quietly degrade to threads).  It
also pins the handle pool's lifecycle (reuse, invalidation, external
replacement, LRU bounds) and the new obs coverage
(``io.mmap_hit``/``io.mmap_miss``/``io.handle_reuse``,
``decode.vectorized_runs``, the ``executor.run`` span).
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core import SpatialReader, WriterConfig
from repro.dataset import Dataset
from repro.errors import BackendError
from repro.format.datafile import HEADER_BYTES
from repro.io import PosixBackend, ReadRequest, posix
from repro.io.executor import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.io.faults import FaultInjectingBackend, FaultPlan
from repro.obs.names import (
    DECODE_VECTORIZED_RUNS,
    IO_BULK_BYTES,
    IO_BYTES_READ,
    IO_HANDLE_REUSES,
    IO_MMAP_HITS,
    IO_MMAP_MISSES,
    IO_OPENS,
    IO_READS,
    SPAN_EXECUTOR_RUN,
)
from repro.obs.recorder import Recorder
from repro.particles.dtype import make_particle_dtype

from .conftest import write_dataset
from .test_read_parity import FAULT_SEED, QUERY, event_shape, span_shape

ATTRS = ("energy", "temperature")
COLUMNAR_DTYPE = make_particle_dtype(extra_scalars=ATTRS)


def write_posix(root):
    """A default (chunk-indexed, row v3) dataset on the real filesystem."""
    backend, _, _ = write_dataset(
        nprocs=8, partition_factor=(2, 2, 2), backend=PosixBackend(root)
    )
    return backend


def write_posix_columnar(root):
    """A columnar v4 dataset (shuffle-zlib) on the real filesystem."""
    backend, _, _ = write_dataset(
        nprocs=8,
        partition_factor=(2, 2, 1),
        config=WriterConfig(
            partition_factor=(2, 2, 1),
            chunk_size=64,
            attr_index=ATTRS,
            layout="columnar",
            codec="shuffle-zlib",
        ),
        dtype=COLUMNAR_DTYPE,
        backend=PosixBackend(root),
    )
    return backend


def data_paths(backend):
    return sorted(f"data/{n}" for n in backend.listdir("data"))


def run_box(backend, executor=None, **ds_kw):
    """One exact box query; returns (batch, report, dataset recorder)."""
    ds = Dataset.open(
        backend, executor=executor or SerialExecutor(), **ds_kw
    )
    reader = ds.reader()
    batch = reader.execute(reader.plan_box_read(QUERY), exact=True)
    return batch, reader.last_report, ds.recorder


def process_pool_ran(executor: ProcessExecutor) -> bool:
    """Parent-observable probe: the process pool spun up and the internal
    thread fallback never did (child-side state is invisible post-fork)."""
    return executor._pool is not None and executor._fallback._pool is None


class TestMmapParity:
    """mmap fast path vs buffered pread: identical everything."""

    def test_mmap_vs_buffered_bit_identical(self, tmp_path):
        write_posix(tmp_path / "ds")
        mb, mr, mrec = run_box(PosixBackend(tmp_path / "ds"))
        bb, br, brec = run_box(PosixBackend(tmp_path / "ds", use_mmap=False))
        assert mb.data.tobytes() == bb.data.tobytes()
        assert mr == br
        assert span_shape(mrec) == span_shape(brec)
        assert event_shape(mrec) == event_shape(brec)

    def test_full_read_parity(self, tmp_path):
        write_posix(tmp_path / "ds")
        a = Dataset.open(PosixBackend(tmp_path / "ds")).reader()
        b = Dataset.open(
            PosixBackend(tmp_path / "ds", use_mmap=False)
        ).reader()
        assert a.read_full().data.tobytes() == b.read_full().data.tobytes()
        assert a.last_report == b.last_report

    def test_mmap_counters(self, tmp_path):
        write_posix(tmp_path / "ds")
        ds = Dataset.open(PosixBackend(tmp_path / "ds"))
        reader = ds.reader()
        reader.read_full()  # a file is mapped when its handle is reused
        ds.backend.attach_recorder(ds.recorder)
        reader.read_full()
        assert ds.recorder.total(IO_MMAP_HITS) > 0
        assert ds.recorder.total(IO_MMAP_MISSES) == 0

    def test_buffered_counts_misses(self, tmp_path):
        write_posix(tmp_path / "ds")
        ds = Dataset.open(PosixBackend(tmp_path / "ds", use_mmap=False))
        ds.backend.attach_recorder(ds.recorder)
        ds.reader().read_full()
        assert ds.recorder.total(IO_MMAP_HITS) == 0
        assert ds.recorder.total(IO_MMAP_MISSES) > 0

    def test_mapping_budget_falls_back_to_preadv(self, tmp_path):
        """Files past max_mapped_bytes serve via pread/preadv, bit-identical."""
        write_posix(tmp_path / "ds")
        want = Dataset.open(PosixBackend(tmp_path / "ds")).reader().read_full()
        ds = Dataset.open(PosixBackend(tmp_path / "ds", max_mapped_bytes=1))
        ds.backend.attach_recorder(ds.recorder)
        got = ds.reader().read_full()
        assert got.data.tobytes() == want.data.tobytes()
        assert ds.recorder.total(IO_MMAP_HITS) == 0
        assert ds.recorder.total(IO_MMAP_MISSES) > 0


def rss_file_bytes() -> int:
    """This process's resident file-backed pages (``RssFile``), in bytes."""
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("RssFile:"))
    return int(line.split()[1]) * 1024


class TestReadvCopyThreshold:
    """``readv`` lands a range by its length: short mapped ranges by slice
    assignment, longer ones by the GIL-releasing numpy copy, and bulk ones
    (mapped or not) by ``preadv`` straight into the caller's view.  The
    bytes and the ``io.*`` counters cannot tell which ran, and the mapping
    is the only thing that can: a hit on a mapped handle, else a miss.
    Each backend's handle is warmed by one read first, as a file is mapped
    only when its handle is handed out again."""

    T = posix._GIL_RELEASING_COPY_BYTES
    B = posix._BULK_READ_BYTES
    LENGTHS = (0, 1, T - 1, T, T + 1, B - 1, B, B + 1)
    BACKENDS = {
        "mapped": {},
        "unmapped": {"use_mmap": False},
        "over-budget": {"max_mapped_bytes": 1},
    }

    def _file(self, tmp_path):
        rng = np.random.default_rng(FAULT_SEED)
        blob = rng.integers(0, 256, self.B + (1 << 20) + 99, dtype=np.uint8).tobytes()
        PosixBackend(tmp_path / "raw").write_file("blob.bin", blob)
        return blob

    def _readv(self, backend, lengths, first_offset=5):
        backend.read_range("blob.bin", 0, 8)  # pool the handle; reuse maps it
        rec = Recorder()
        backend.attach_recorder(rec)
        # Distinct offsets, touching and overlapping freely: ranges are
        # independent reads of one open, landing back to back.
        offsets = [first_offset + 7 * i for i in range(len(lengths))]
        landing = memoryview(bytearray(sum(lengths)))
        total = backend.readv("blob.bin", ReadRequest([(landing, offsets, list(lengths))]))
        ends = np.cumsum(lengths).tolist()
        views = [landing[end - n : end] for n, end in zip(lengths, ends)]
        return offsets, views, total, rec

    @staticmethod
    def _counters(rec):
        return {
            name: rec.value(name, ("blob.bin",))
            for name in (IO_READS, IO_BYTES_READ, IO_OPENS, IO_HANDLE_REUSES, IO_BULK_BYTES)
        }

    def test_lengths_straddling_the_threshold(self, tmp_path):
        blob = self._file(tmp_path)
        counters = {}
        for name, kw in self.BACKENDS.items():
            backend = PosixBackend(tmp_path / "raw", **kw)
            offsets, views, total, rec = self._readv(backend, self.LENGTHS)
            assert total == sum(self.LENGTHS)
            for off, view, n in zip(offsets, views, self.LENGTHS):
                assert bytes(view) == blob[off : off + n], (name, n)
            counters[name] = self._counters(rec)
            hit = name == "mapped"
            assert rec.value(IO_MMAP_HITS, ("blob.bin",)) == int(hit)
            assert rec.value(IO_MMAP_MISSES, ("blob.bin",)) == int(not hit)
            assert backend.pool_stats()["mapped_bytes"] == len(blob) * hit
        assert counters["mapped"] == counters["unmapped"] == counters["over-budget"] == {
            IO_READS: len(self.LENGTHS),
            IO_BYTES_READ: sum(self.LENGTHS),
            IO_OPENS: 0,
            IO_HANDLE_REUSES: 1,
            IO_BULK_BYTES: sum(n for n in self.LENGTHS if n >= self.B),
        }

    @pytest.mark.parametrize("length", [1, T - 1, T, T + 1, B - 1, B, B + 1])
    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_short_read_error_text(self, tmp_path, length, use_mmap):
        blob = self._file(tmp_path)
        backend = PosixBackend(tmp_path / "raw", use_mmap=use_mmap)
        offset = len(blob) - length + 1  # one byte past EOF
        with pytest.raises(BackendError) as err:
            request = ReadRequest(
                [(bytearray(8), (0,), (8,)), (bytearray(length), (offset,), (length,))]
            )
            backend.readv("blob.bin", request)
        full = tmp_path / "raw" / "blob.bin"
        assert str(err.value) == (
            f"reading {full}: short read from {full}: wanted {length} "
            f"bytes at {offset}, got {length - 1}"
        )

    def test_read_file_above_the_threshold(self, tmp_path):
        blob = self._file(tmp_path)
        for name, kw in self.BACKENDS.items():
            backend = PosixBackend(tmp_path / "raw", **kw)
            backend.read_range("blob.bin", 0, 8)  # pool the handle; reuse maps it
            rec = Recorder()
            backend.attach_recorder(rec)
            assert backend.read_file("blob.bin") == blob, name
            assert rec.value(IO_BULK_BYTES, ("blob.bin",)) == len(blob)
            assert rec.value(IO_MMAP_HITS, ("blob.bin",)) == int(name == "mapped")

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="RssFile is Linux's"
    )
    def test_a_bulk_range_maps_no_page(self, tmp_path):
        """A bulk ``readv`` of a mapped 16 MiB file leaves its pages out of
        the reader's RSS: they are read, not faulted in through the map."""
        size = 16 << 20
        PosixBackend(tmp_path / "raw").write_file("big.bin", bytes(range(256)) * (size // 256))
        backend = PosixBackend(tmp_path / "raw")
        for _ in range(2):  # pool the handle, then map it on its reuse
            backend.read_range("big.bin", 0, 8)
        assert backend.pool_stats()["mapped_bytes"] == size
        out = bytearray(size)
        before = rss_file_bytes()
        backend.readinto("big.bin", 0, out)
        assert rss_file_bytes() - before < 1 << 20
        assert out[:512] == bytes(range(256)) * 2


class TestMapOnReuse:
    """A fresh handle is opened unmapped and serves by ``pread``/``preadv``;
    the pool maps its file, within the budget, when it hands the same
    handle out again."""

    SIZE = 16 << 20

    def _file(self, tmp_path, name="big.bin", size=SIZE):
        rng = np.random.default_rng(FAULT_SEED)
        blob = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        PosixBackend(tmp_path / "raw").write_file(name, blob)
        return blob

    @staticmethod
    def _scattered(size, step=1 << 16, length=4096):
        """A request for one 4 KiB range per 64 KiB of the file."""
        offsets = list(range(0, size - length, step))
        out = bytearray(length * len(offsets))
        return out, offsets, ReadRequest([(out, offsets, [length] * len(offsets))])

    @pytest.mark.parametrize("call", ["readv", "read_file"])
    def test_a_cold_read_maps_nothing(self, tmp_path, call):
        blob = self._file(tmp_path)
        backend = PosixBackend(tmp_path / "raw")
        rec = Recorder()
        backend.attach_recorder(rec)
        if call == "readv":
            out, offsets, request = self._scattered(len(blob))
            backend.readv("big.bin", request)
            assert bytes(out) == b"".join(blob[o : o + 4096] for o in offsets)
        else:
            assert backend.read_file("big.bin") == blob
        assert backend.pool_stats()["mapped_bytes"] == 0
        assert rec.value(IO_MMAP_MISSES, ("big.bin",)) == 1
        assert rec.value(IO_MMAP_HITS, ("big.bin",)) == 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="RssFile is Linux's"
    )
    def test_a_cold_scattered_read_holds_no_page_cache(self, tmp_path):
        """4 KiB ranges scattered over a fresh 16 MiB handle grow the
        reader's file-backed RSS by under 1 MiB: mapped, each would fault
        a window of the file in around it."""
        blob = self._file(tmp_path)
        backend = PosixBackend(tmp_path / "raw")
        out, offsets, request = self._scattered(len(blob))
        before = rss_file_bytes()
        backend.readv("big.bin", request)
        assert rss_file_bytes() - before < 1 << 20
        assert bytes(out[:4096]) == blob[:4096]

    def test_the_second_acquire_maps_the_file(self, tmp_path):
        blob = self._file(tmp_path, size=1 << 20)
        backend = PosixBackend(tmp_path / "raw")
        rec = Recorder()
        backend.attach_recorder(rec)
        assert backend.read_range("big.bin", 0, 64) == blob[:64]
        assert backend.pool_stats()["mapped_bytes"] == 0
        assert backend.read_range("big.bin", 64, 64) == blob[64:128]
        stats = backend.pool_stats()
        assert (stats["opens"], stats["reuses"], stats["mapped_bytes"]) == (1, 1, len(blob))
        assert rec.value(IO_MMAP_MISSES, ("big.bin",)) == 1
        assert rec.value(IO_MMAP_HITS, ("big.bin",)) == 1
        assert backend.read_file("big.bin") == blob
        assert backend.pool_stats()["mapped_bytes"] == len(blob)  # mapped once
        backend.close()
        assert backend.pool_stats()["mapped_bytes"] == 0

    def test_unmapped_backends_never_map(self, tmp_path):
        self._file(tmp_path, size=1 << 20)
        for kw in ({"use_mmap": False}, {"max_mapped_bytes": 1}):
            backend = PosixBackend(tmp_path / "raw", **kw)
            for _ in range(3):
                backend.read_range("big.bin", 0, 64)
            assert backend.pool_stats()["mapped_bytes"] == 0, kw

    def test_the_budget_holds_at_reuse(self, tmp_path):
        """Of two reused files only the one that fits the budget maps; the
        other maps at a later reuse once the budget is free again."""
        a = self._file(tmp_path, "a.bin", 1 << 20)
        b = self._file(tmp_path, "b.bin", 1 << 19)
        backend = PosixBackend(tmp_path / "raw", max_mapped_bytes=(1 << 20) + 100)
        rec = Recorder()
        backend.attach_recorder(rec)
        for _ in range(2):
            for name in ("a.bin", "b.bin"):
                backend.read_range(name, 0, 8)
        assert backend.pool_stats()["mapped_bytes"] == len(a)
        assert rec.value(IO_MMAP_HITS, ("a.bin",)) == 1
        assert rec.value(IO_MMAP_HITS, ("b.bin",)) == 0
        backend.delete("a.bin")  # frees a's mapping
        assert backend.pool_stats()["mapped_bytes"] == 0
        assert backend.read_file("b.bin") == b
        assert backend.pool_stats()["mapped_bytes"] == len(b)
        assert rec.value(IO_MMAP_HITS, ("b.bin",)) == 1

    @pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
    def test_concurrent_first_reads_of_one_handle(self, tmp_path, pooled):
        """Eight threads reading one fresh file at once — racing its open,
        or its mapping while the others read through the fd — all get the
        file's bytes, the pool accounts the file mapped at most once, and
        closing the backend unmaps everything."""
        blob = self._file(tmp_path, size=1 << 20)
        wants = {}
        for i in range(8):
            _out, offsets, _request = self._scattered(len(blob), length=1000 + i)
            wants[i] = b"".join(blob[o : o + 1000 + i] for o in offsets)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                backend = PosixBackend(tmp_path / "raw")
                if pooled:
                    backend.read_range("big.bin", 0, 8)
                barrier = threading.Barrier(8, timeout=30)
                got: dict[int, tuple[bytes, bytes]] = {}
                errors: list[Exception] = []

                def read(i):
                    try:
                        out, _offsets, request = self._scattered(len(blob), length=1000 + i)
                        barrier.wait()
                        backend.readv("big.bin", request)
                        got[i] = bytes(out), backend.read_file("big.bin")
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert not errors
                assert got == {i: (wants[i], blob) for i in range(8)}
                mapped = backend.pool_stats()["mapped_bytes"]
                assert mapped == len(blob) if pooled else mapped in (0, len(blob))
                backend.close()
                assert backend.pool_stats()["mapped_bytes"] == 0
        finally:
            sys.setswitchinterval(interval)


class TestHandlePool:
    """Lifecycle of the LRU handle pool behind every PosixBackend read."""

    def test_opens_count_files_opened(self, tmp_path):
        """Two reads of one file on a fresh backend: one open, one reuse."""
        PosixBackend(tmp_path / "raw").write_file("blob.bin", bytes(64))
        backend = PosixBackend(tmp_path / "raw")
        rec = Recorder()
        backend.attach_recorder(rec)
        for _ in range(2):
            backend.readv("blob.bin", ReadRequest.one(8, bytearray(16)))
        assert rec.value(IO_OPENS, ("blob.bin",)) == 1
        assert rec.value(IO_HANDLE_REUSES, ("blob.bin",)) == 1
        assert backend.pool_stats()["opens"] == 1

    def test_repeat_reads_reuse_the_handle(self, tmp_path):
        backend = write_posix(tmp_path / "ds")
        path = data_paths(backend)[0]
        backend.read_file(path)
        s0 = backend.pool_stats()
        backend.read_file(path)
        backend.read_range(path, 0, HEADER_BYTES)
        s1 = backend.pool_stats()
        assert s1["reuses"] == s0["reuses"] + 2
        assert s1["opens"] == s0["opens"]  # no fresh os.open paid

    def test_reuse_counter_recorded(self, tmp_path):
        backend = write_posix(tmp_path / "ds")
        ds = Dataset.open(backend)
        ds.backend.attach_recorder(ds.recorder)
        reader = ds.reader()
        reader.read_full()
        reader.read_full()
        assert ds.recorder.total(IO_HANDLE_REUSES) > 0

    def test_write_invalidates_pooled_handle(self, tmp_path):
        backend = write_posix(tmp_path / "ds")
        path = data_paths(backend)[0]
        old = backend.read_file(path)
        inv0 = backend.pool_stats()["invalidations"]
        new = bytearray(old)
        new[HEADER_BYTES + 4] ^= 0x01
        backend.write_file(path, bytes(new))
        assert backend.pool_stats()["invalidations"] == inv0 + 1
        assert backend.read_file(path) == bytes(new)

    def test_external_replace_detected(self, tmp_path):
        """A rename done behind the backend's back (no invalidate call) is
        caught by the (ino, size, mtime_ns) identity check on acquire."""
        backend = write_posix(tmp_path / "ds")
        path = data_paths(backend)[0]
        old = backend.read_file(path)  # handle now pooled
        swapped = old[:-1] + bytes([old[-1] ^ 0xFF])
        tmp = tmp_path / "swap"
        tmp.write_bytes(swapped)
        os.replace(tmp, tmp_path / "ds" / path)
        assert backend.read_file(path) == swapped

    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "stale"])
    @pytest.mark.parametrize("grow", [-7, 9], ids=["shorter", "longer"])
    def test_replace_between_lookup_and_open(self, tmp_path, monkeypatch, pooled, grow):
        """A file swapped after the path lookup but before ``os.open`` is
        pooled under the identity and size of what was opened."""
        root = tmp_path / "ds"
        backend = PosixBackend(root)
        backend.write_file("data/f.bin", bytes(range(100)))
        if pooled:
            backend.read_file("data/f.bin")  # pool the handle ...
            (root / "swap").write_bytes(b"\x01" * 100)
            os.replace(root / "swap", root / "data" / "f.bin")  # ... then stale it
        new = b"\x07" * (100 + grow)
        real_open = os.open

        def swapping_open(path, flags, *args):
            if str(path).endswith("f.bin"):
                (root / "swap").write_bytes(new)
                os.replace(root / "swap", root / "data" / "f.bin")
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", swapping_open)
        assert backend.read_file("data/f.bin") == new
        monkeypatch.setattr(os, "open", real_open)
        handle = backend._pool._handles["data/f.bin"]
        st = os.stat(root / "data" / "f.bin")
        assert handle.sig == (st.st_ino, st.st_size, st.st_mtime_ns)
        assert handle.size == len(new)
        out = bytearray(len(new))
        backend.readinto("data/f.bin", 0, out)
        assert bytes(out) == new

    def test_delete_invalidates(self, tmp_path):
        backend = write_posix(tmp_path / "ds")
        path = data_paths(backend)[0]
        backend.read_file(path)
        backend.delete(path)
        assert not backend.exists(path)
        with pytest.raises(BackendError):
            backend.read_file(path)

    def test_lru_eviction_bounds_pool(self, tmp_path):
        backend, _, _ = write_dataset(
            nprocs=8,
            partition_factor=(1, 1, 1),  # 8 data files
            backend=PosixBackend(tmp_path / "ds", max_handles=2),
        )
        for path in data_paths(backend):
            backend.read_file(path)
        stats = backend.pool_stats()
        assert stats["pooled"] <= 2
        assert stats["evictions"] >= len(data_paths(backend)) - 2

    def test_close_drops_everything_and_refills(self, tmp_path):
        backend = write_posix(tmp_path / "ds")
        want = backend.read_file(data_paths(backend)[0])
        backend.close()
        assert backend.pool_stats()["pooled"] == 0
        assert backend.read_file(data_paths(backend)[0]) == want


class TestProcessPoolParity:
    """Process-pool execution: same bytes, reports, traces as serial."""

    def test_box_read_bit_identical(self, tmp_path):
        write_posix(tmp_path / "ds")
        sb, sr, srec = run_box(PosixBackend(tmp_path / "ds"))
        executor = ProcessExecutor(max_workers=2)
        try:
            pb, pr, prec = run_box(PosixBackend(tmp_path / "ds"), executor)
            assert process_pool_ran(executor)
        finally:
            executor.shutdown()
        assert pb.data.tobytes() == sb.data.tobytes()
        assert pr == sr
        assert span_shape(srec) == span_shape(prec)
        assert event_shape(srec) == event_shape(prec)

    def test_full_read_bit_identical(self, tmp_path):
        write_posix(tmp_path / "ds")
        serial = Dataset.open(PosixBackend(tmp_path / "ds")).reader()
        executor = ProcessExecutor(max_workers=2)
        try:
            pooled = Dataset.open(
                PosixBackend(tmp_path / "ds"), executor=executor
            ).reader()
            a = serial.read_full()
            b = pooled.read_full()
            assert process_pool_ran(executor)
        finally:
            executor.shutdown()
        assert a.data.tobytes() == b.data.tobytes()
        assert serial.last_report == pooled.last_report

    def test_columnar_read_bit_identical(self, tmp_path):
        write_posix_columnar(tmp_path / "ds")
        sb, sr, srec = run_box(PosixBackend(tmp_path / "ds"))
        executor = ProcessExecutor(max_workers=2)
        try:
            pb, pr, prec = run_box(PosixBackend(tmp_path / "ds"), executor)
            assert process_pool_ran(executor)
        finally:
            executor.shutdown()
        assert pb.data.tobytes() == sb.data.tobytes()
        assert pr == sr
        assert event_shape(srec) == event_shape(prec)
        # The vectorized-decode accounting crosses the process boundary.
        assert srec.total(DECODE_VECTORIZED_RUNS) > 0
        assert prec.total(DECODE_VECTORIZED_RUNS) == srec.total(
            DECODE_VECTORIZED_RUNS
        )

    def test_degraded_corruption_skips_identically(self, tmp_path):
        """One flipped byte on disk: the same partition is skipped with the
        same ledger whether the decode ran in-process or in a worker."""
        backend, _, _ = write_dataset(
            nprocs=8,
            partition_factor=(1, 1, 1),  # one file per rank
            backend=PosixBackend(tmp_path / "ds"),
        )
        victim = SpatialReader(backend).metadata.records[2]
        raw = bytearray(backend.read_file(victim.file_path))
        raw[HEADER_BYTES + 4] ^= 0x01
        backend.write_file(victim.file_path, bytes(raw))

        def degraded(executor):
            reader = Dataset.open(
                PosixBackend(tmp_path / "ds"), strict=False, executor=executor
            ).reader()
            return reader.read_full(), reader.last_report

        want, want_report = degraded(SerialExecutor())
        executor = ProcessExecutor(max_workers=2)
        try:
            got, got_report = degraded(executor)
            assert process_pool_ran(executor)
        finally:
            executor.shutdown()
        assert want_report.skipped_boxes() == [victim.box_id]
        assert got.data.tobytes() == want.data.tobytes()
        assert got_report == want_report

    def test_fault_wrapper_degrades_to_threads(self, tmp_path):
        """A FaultInjectingBackend has no process_clone, so the engine keeps
        the tasks local and the process executor quietly runs them on its
        thread fallback — results still bit-identical and complete."""
        inner = write_posix(tmp_path / "ds")
        clean = SpatialReader(inner)
        want = clean.execute(clean.plan_box_read(QUERY), exact=True)
        faulty = FaultInjectingBackend(
            PosixBackend(tmp_path / "ds"),
            FaultPlan.transient_reads(
                heal_after=1, path_glob="data/*", seed=FAULT_SEED
            ),
        )
        executor = ProcessExecutor(max_workers=2)
        try:
            ds = Dataset.open(faulty, executor=executor)
            reader = ds.reader()
            got = reader.execute(reader.plan_box_read(QUERY), exact=True)
            assert executor._pool is None  # never shipped
            # The thread fallback ran it (a one-file plan runs on the
            # caller, so the fallback's pool itself need not exist).
            modes = [
                s.args["mode"] for s in ds.recorder.spans if s.name == SPAN_EXECUTOR_RUN
            ]
            assert modes and set(modes) == {"thread"}
        finally:
            executor.shutdown()
        assert got.data.tobytes() == want.data.tobytes()
        assert reader.last_report.complete
        assert reader.last_report.retries > 0

    def test_warm_cache_parity(self, tmp_path):
        """A CachingBackend wrapper likewise keeps execution local; warm
        hits serve the same bytes with zero inner-backend reads."""
        backend = write_posix(tmp_path / "ds")
        plain = Dataset.open(PosixBackend(tmp_path / "ds")).reader()
        want = plain.execute(plain.plan_box_read(QUERY), exact=True)
        executor = ProcessExecutor(max_workers=2)
        try:
            ds = Dataset.open(
                backend, cache_bytes=32 * 2**20, executor=executor
            )
            reader = ds.reader()
            cold = reader.execute(reader.plan_box_read(QUERY), exact=True)
            hits_before = ds.backend.hits
            opens_before = backend.pool_stats()["opens"]
            warm = reader.execute(reader.plan_box_read(QUERY), exact=True)
            assert executor._pool is None  # cache wrapper -> local tasks
        finally:
            executor.shutdown()
        assert want.data.tobytes() == cold.data.tobytes()
        assert want.data.tobytes() == warm.data.tobytes()
        assert ds.backend.hits > hits_before
        assert backend.pool_stats()["opens"] == opens_before


class TestObsCoverage:
    """The new counters and the executor.run span are actually emitted."""

    def test_vectorized_decode_counted_for_pruned_runs(self, tmp_path):
        write_posix(tmp_path / "ds")
        batch, _report, recorder = run_box(PosixBackend(tmp_path / "ds"))
        assert len(batch)
        assert recorder.total(DECODE_VECTORIZED_RUNS) > 0

    def test_vectorized_decode_executor_independent(self, tmp_path):
        write_posix(tmp_path / "ds")
        _, _, srec = run_box(PosixBackend(tmp_path / "ds"))
        _, _, trec = run_box(
            PosixBackend(tmp_path / "ds"), ThreadedExecutor(max_workers=4)
        )
        assert srec.total(DECODE_VECTORIZED_RUNS) == trec.total(
            DECODE_VECTORIZED_RUNS
        )

    def exec_spans(self, recorder):
        return [s for s in recorder.spans if s.name == SPAN_EXECUTOR_RUN]

    def test_executor_span_args_serial(self, tmp_path):
        write_posix(tmp_path / "ds")
        _, _, recorder = run_box(PosixBackend(tmp_path / "ds"))
        spans = self.exec_spans(recorder)
        assert spans
        assert all(s.args["mode"] == "serial" for s in spans)
        assert all(s.args["queue_depth"] == 1 for s in spans)
        assert all(s.args["tasks"] >= 1 for s in spans)

    def test_executor_span_args_thread(self, tmp_path):
        write_posix(tmp_path / "ds")
        _, _, recorder = run_box(
            PosixBackend(tmp_path / "ds"), ThreadedExecutor(max_workers=3)
        )
        spans = self.exec_spans(recorder)
        assert spans
        assert all(s.args["mode"] == "thread" for s in spans)
        assert all(s.args["workers"] == 3 for s in spans)
        assert all(s.args["queue_depth"] == 6 for s in spans)

    def test_executor_span_args_process(self, tmp_path):
        write_posix(tmp_path / "ds")
        executor = ProcessExecutor(max_workers=2)
        try:
            _, _, recorder = run_box(PosixBackend(tmp_path / "ds"), executor)
        finally:
            executor.shutdown()
        spans = self.exec_spans(recorder)
        assert spans
        assert all(s.args["mode"] == "process" for s in spans)
        assert all(s.args["workers"] == 2 for s in spans)
