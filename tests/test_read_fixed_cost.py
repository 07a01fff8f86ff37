"""The read path's per-file fixed cost, pinned as counts rather than times.

An LOD read of a few particles per file is bound by what every read pays
per file touched, not by bytes (the paper's Fig. 8 flat region).  Wall
clock is too noisy to gate on, so this suite counts the work instead: the
``stat`` calls, the ``pathlib`` objects built by the POSIX backend, the
data-file names rebuilt and the recorders allocated by one warm
``plan_full`` -> ``run``.  It also pins the backend's path map: every
path string resolves once, ``..`` never enters the map, and the map
stays as bounded as the handle pool.
"""

import os
import sys
import threading

import numpy as np
import pytest

import repro.format.metadata as metadata
from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import DataFileError
from repro.format.datafile import (
    HEADER_BYTES,
    read_particle_runs_into,
    write_data_file,
)
from repro.io import (
    CachingBackend,
    DiskCacheBackend,
    PosixBackend,
    PrefixBackend,
    ReadRequest,
    RemoteBackend,
    RetryPolicy,
    SimulatedTransport,
    VirtualBackend,
    build_remote_stack,
)
from repro.io.executor import SerialExecutor, ThreadedExecutor
from repro.io.faults import FaultInjectingBackend, FaultPlan
from repro.obs.names import EV_RETRY, IO_ATTEMPTS, IO_GIVEUPS
from repro.obs.recorder import Recorder
from repro.particles import uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE

from .conftest import write_dataset
from .test_read_parity import FAULT_SEED, event_shape

FILES = 8
LEVEL = 3


def write_files(root):
    """An 8-file dataset on the real filesystem."""
    write_dataset(nprocs=8, partition_factor=(1, 1, 1), backend=PosixBackend(root))


def in_pathlib(filename: str) -> bool:
    """Whether code in ``filename`` belongs to the stdlib ``pathlib``
    (one module up to 3.12, a package from 3.13)."""
    return os.path.basename(filename) == "pathlib.py" or (
        f"{os.sep}pathlib{os.sep}" in filename
    )


@pytest.fixture
def warm(tmp_path):
    """``(dataset, plan)`` over an 8-file POSIX dataset, every memo hot."""
    write_files(tmp_path / "ds")
    ds = Dataset.open(PosixBackend(tmp_path / "ds", create=False))
    engine = ds.engine()
    plan = engine.plan_full(max_level=LEVEL)
    assert plan.num_files == FILES
    engine.run(plan)
    engine.run(engine.plan_full(max_level=LEVEL))
    return ds, plan


def run_once(ds):
    engine = ds.engine()
    return engine.run(engine.plan_full(max_level=LEVEL))


class TestWarmLodRead:
    def test_one_stat_per_file(self, warm, monkeypatch):
        ds, _plan = warm
        calls = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            calls.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        result = run_once(ds)
        assert len(result) > 0
        # The pooled handle's validation; the readv's bounds check stands in
        # for a size pre-check.
        assert len(calls) <= FILES

    def test_posix_backend_builds_no_path(self, warm):
        ds, _plan = warm
        posix_calls = []

        def profile(frame, event, _arg):
            if event != "call" or not in_pathlib(frame.f_code.co_filename):
                return
            caller = frame.f_back
            if caller is not None and caller.f_globals.get("__name__") == "repro.io.posix":
                posix_calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            run_once(ds)
        finally:
            sys.setprofile(None)
        assert posix_calls == []

    def test_no_data_file_name_rebuilt(self, warm, monkeypatch):
        ds, _plan = warm
        calls = []
        real = metadata.data_file_name

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(metadata, "data_file_name", counting)
        run_once(ds)
        assert calls == []

    def test_at_most_one_recorder_per_entry(self, warm, monkeypatch):
        ds, plan = warm
        made = []
        real_init = Recorder.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Recorder, "__init__", counting_init)
        run_once(ds)
        assert 0 < len(made) <= plan.num_files

    def test_counts_change_nothing_read(self, warm):
        ds, plan = warm
        result = run_once(ds)
        assert len(result) == plan.total_particles
        assert result.report.partitions_read == FILES


class TestUnderFaults:
    """The retry and recorder fast paths keep every count under faults."""

    @staticmethod
    def faulty(root, executor):
        """A facade whose data files each fail twice before they heal."""
        backend = FaultInjectingBackend(
            PosixBackend(root, create=False),
            FaultPlan.transient_reads(heal_after=2, path_glob="data/*", seed=FAULT_SEED),
        )
        return backend, Dataset.open(
            backend, retry=RetryPolicy.immediate(), executor=executor
        )

    def test_lod_read_retries_are_all_accounted(self, tmp_path):
        root = tmp_path / "ds"
        write_files(root)
        want = run_once(Dataset.open(PosixBackend(root, create=False)))
        streams = []
        for executor in (SerialExecutor(), ThreadedExecutor(max_workers=2)):
            backend, ds = self.faulty(root, executor)
            recorder = Recorder()
            got = ds.engine().run(ds.engine().plan_full(max_level=LEVEL), recorder=recorder)
            assert got.batch.data.tobytes() == want.batch.data.tobytes()
            retries = backend.fault_counts["transient"]
            assert retries == 2 * FILES
            assert got.report.retries == retries
            assert len(recorder.events_named(EV_RETRY)) == retries
            assert recorder.total(IO_ATTEMPTS) == FILES + retries
            assert recorder.total(IO_GIVEUPS) == 0
            streams.append(event_shape(recorder))
            executor.shutdown()
        # Threads merge back into exactly the stream serial execution makes.
        assert streams[0] == streams[1]


PARTICLES = 100

#: Every backend stack a read can run on, built over one directory.
STACKS = {
    "posix": lambda d: PosixBackend(d),
    "posix-pread": lambda d: PosixBackend(d, use_mmap=False),
    "virtual": lambda d: VirtualBackend(),
    "ram-cache": lambda d: CachingBackend(VirtualBackend(), 1 << 20),
    "disk-cache": lambda d: DiskCacheBackend(VirtualBackend(), d / "cache", 1 << 20),
    "faults": lambda d: FaultInjectingBackend(VirtualBackend(), FaultPlan()),
    "prefix": lambda d: PrefixBackend(VirtualBackend(), "ds"),
    "remote": lambda d: RemoteBackend(SimulatedTransport(VirtualBackend())),
    "remote-stack": lambda d: build_remote_stack(
        SimulatedTransport(VirtualBackend()),
        disk_cache_dir=str(d / "cache"),
        retry=RetryPolicy.immediate(),
    ),
}


def store_of(backend):
    """The writable backend at the bottom of a stack."""
    while True:
        if isinstance(backend, RemoteBackend):
            backend = backend.transport.store
        elif hasattr(backend, "base"):
            backend = backend.base
        else:
            return backend


@pytest.mark.parametrize("stack", sorted(STACKS))
class TestPastTheEnd:
    """The size pre-check now rides on the readv's bounds check: a request
    past the particle count still raises the format's own error on every
    backend, and a file shorter than its header raises too."""

    def write(self, tmp_path, stack, particles=PARTICLES):
        backend = STACKS[stack](tmp_path)
        batch = uniform_particles(Box([0, 0, 0], [1, 1, 1]), particles, dtype=MINIMAL_DTYPE)
        target = backend if stack == "prefix" else store_of(backend)
        write_data_file(target, "data/f.pbin", batch)
        return backend, batch

    def test_prefix_past_count(self, tmp_path, stack):
        backend, _ = self.write(tmp_path, stack)
        out = np.empty(PARTICLES + 5, dtype=MINIMAL_DTYPE)
        with pytest.raises(DataFileError, match=r"run \[0, 105\) exceeds particle count 100"):
            read_particle_runs_into(backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, 105)], out)

    def test_runs_past_count(self, tmp_path, stack):
        backend, _ = self.write(tmp_path, stack)
        out = np.empty(20, dtype=MINIMAL_DTYPE)
        with pytest.raises(DataFileError, match=r"run \[95, 105\) exceeds particle count 100"):
            read_particle_runs_into(
                backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, 10), (95, 10)], out
            )

    def test_in_range_reads_land(self, tmp_path, stack):
        backend, batch = self.write(tmp_path, stack)
        out = np.empty(PARTICLES, dtype=MINIMAL_DTYPE)
        assert read_particle_runs_into(
            backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, PARTICLES)], out
        ) == PARTICLES
        assert out.tobytes() == batch.data.tobytes()
        runs_out = np.empty(20, dtype=MINIMAL_DTYPE)
        read_particle_runs_into(
            backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, 10), (90, 10)], runs_out
        )
        assert runs_out.tobytes() == np.concatenate([batch.data[:10], batch.data[90:]]).tobytes()

    def test_torn_file_raises(self, tmp_path, stack):
        backend, _ = self.write(tmp_path, stack)
        store = backend if stack == "prefix" else store_of(backend)
        raw = store.read_file("data/f.pbin")
        store.write_file("data/f.pbin", raw[: HEADER_BYTES + 60 * MINIMAL_DTYPE.itemsize])
        out = np.empty(80, dtype=MINIMAL_DTYPE)
        with pytest.raises(DataFileError, match="truncated"):
            read_particle_runs_into(backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, 80)], out)
        with pytest.raises(DataFileError, match="truncated"):
            read_particle_runs_into(
                backend, "data/f.pbin", MINIMAL_DTYPE, None, [(0, 10), (70, 10)], out[:20]
            )


def test_torn_file_fails_the_lod_query(tmp_path):
    """A torn file under an LOD read is an error, never uninitialised rows."""
    root = tmp_path / "ds"
    write_files(root)
    ds = Dataset.open(PosixBackend(root, create=False))
    path = ds.metadata.records[0].file_path
    with open(root / path, "r+b") as fh:
        fh.truncate(HEADER_BYTES + 2 * ds.manifest.dtype.itemsize)
    with pytest.raises(DataFileError, match="truncated"):
        run_once(Dataset.open(PosixBackend(root, create=False)))
    lenient = Dataset.open(PosixBackend(root, create=False), strict=False)
    result = run_once(lenient)
    assert [s.path for s in result.report.skipped] == [path]
    assert result.report.skipped[0].reason == "corrupt"


class TestOneRequestPerFile:
    """A pruned read hands each file's k chunk runs to the backend as one
    flattened request: one ``readv`` per file, carrying the header and k
    ranges that land back to back in one destination — no per-run view
    crosses the backend boundary."""

    BOX = Box([0.1, 0.15, 0.05], [0.85, 0.4, 0.7])

    def test_pruned_read_is_one_flattened_readv_per_file(self, tmp_path, monkeypatch):
        root = tmp_path / "ds"
        write_dataset(
            nprocs=8, partition_factor=(1, 1, 1), particles_per_rank=4000,
            backend=PosixBackend(root),
        )
        engine = Dataset.open(PosixBackend(root, create=False)).engine()
        plan = engine.plan_box(self.BOX)
        want = engine.run(plan, exact=True)  # warm: every memo hot
        runs = {
            rec.file_path: len(plan.chunk_runs[i])
            for i, (rec, _count) in enumerate(plan.entries)
            if i in plan.chunk_runs
        }
        assert runs and max(runs.values()) > 1
        requests = []
        readv = PosixBackend.readv

        def spy(self, path, request, actor=-1):
            requests.append((path, request))
            return readv(self, path, request, actor)

        monkeypatch.setattr(PosixBackend, "readv", spy)
        got = engine.run(plan, exact=True)
        assert np.array_equal(got.batch.data, want.batch.data)
        pruned = [(path, r) for path, r in requests if path in runs]
        assert sorted(path for path, _r in pruned) == sorted(runs)
        for path, request in pruned:
            k = runs[path]
            (header, head_offsets, _), (landing, offsets, lengths) = request.parts
            assert len(header) == HEADER_BYTES and list(head_offsets) == [0]
            assert len(offsets) == len(lengths) == k == request.count - 1
            assert all(type(n) is int for n in (*offsets, *lengths))
            assert len(landing) == sum(lengths)


@pytest.fixture
def backend(tmp_path):
    backend = PosixBackend(tmp_path / "ds", max_handles=4)
    for i in range(3):
        backend.write_file(f"data/file_{i}.pbin", bytes([i]) * (HEADER_BYTES + 8))
    return backend


class TestPathMap:
    @pytest.mark.parametrize("path", ["../escape", "data/../../escape", "data/.."])
    def test_dotdot_rejected_on_every_call(self, backend, path):
        buf = bytearray(4)
        for _ in range(3):
            with pytest.raises(ValueError, match=r"\.\."):
                backend.readv(path, ReadRequest.one(0, buf))
            with pytest.raises(ValueError, match=r"\.\."):
                backend.read_file(path)
            with pytest.raises(ValueError, match=r"\.\."):
                backend.size(path)
        assert backend.pool_stats()["paths"] == 0

    def test_spellings_share_one_handle(self, backend):
        want = backend.read_file("data/file_0.pbin")
        for spelling in ("data//file_0.pbin", "./data/file_0.pbin", "data/file_0.pbin"):
            assert backend.read_file(spelling) == want
            out = np.empty(8, dtype=np.uint8)
            backend.readinto(spelling, HEADER_BYTES, out)
            assert out.tobytes() == want[HEADER_BYTES:]
            assert backend.size(spelling) == len(want)
        stats = backend.pool_stats()
        assert stats["opens"] == 1
        assert stats["pooled"] == 1

    def test_map_stays_bounded(self, backend):
        limit = backend.max_handles
        for k in range(10 * limit):
            spelling = "./" * k + f"data/file_{k % 3}.pbin"
            assert backend.size(spelling) == HEADER_BYTES + 8
        stats = backend.pool_stats()
        assert stats["paths"] <= limit
        assert stats["pooled"] <= limit

    def test_delete_still_invalidates(self, backend):
        path = "data/file_1.pbin"
        backend.read_file(path)
        invalidations = backend.pool_stats()["invalidations"]
        backend.delete(path)
        assert backend.pool_stats()["invalidations"] == invalidations + 1
        with pytest.raises(OSError):
            backend.read_file(path)
        backend.write_file(path, b"fresh bytes")
        assert backend.read_file("./" + path) == b"fresh bytes"
        assert backend.size(path) == len(b"fresh bytes")


def test_path_map_and_span_stacks_under_thread_stress(tmp_path):
    """More threads than cores share one backend's path map and, round by
    round, one fresh recorder whose span stacks they all create at once: no
    read lands wrong bytes, the map stays bounded, and every nested span
    keeps its own thread's parent."""
    backend = PosixBackend(tmp_path / "ds", max_handles=3)
    blobs = {f"data/file_{i}.pbin": bytes([i]) * (HEADER_BYTES + 64) for i in range(5)}
    for path, blob in blobs.items():
        backend.write_file(path, blob)
    threads_n, rounds = 8, 200
    recorders = [Recorder() for _ in range(rounds)]
    barrier = threading.Barrier(threads_n)
    errors = []

    def worker(k):
        try:
            for n, recorder in enumerate(recorders):
                barrier.wait(timeout=60)
                path = f"data/file_{(k + n) % 5}.pbin"
                out = bytearray(16)
                with recorder.span(f"outer-{k}"):
                    with recorder.span(f"inner-{k}"):
                        backend.readv(
                            "./" * (n % 4) + path, ReadRequest.one(HEADER_BYTES, out)
                        )
                if bytes(out) != blobs[path][HEADER_BYTES : HEADER_BYTES + 16]:
                    errors.append((k, n, path))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert backend.pool_stats()["paths"] <= backend.max_handles
    for recorder in recorders:
        parents = {s.name: s.parent for s in recorder.spans}
        assert len(parents) == 2 * threads_n
        assert all(
            parents[f"inner-{k}"] == f"outer-{k}" and parents[f"outer-{k}"] is None
            for k in range(threads_n)
        )
