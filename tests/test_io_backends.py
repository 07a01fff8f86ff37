"""Storage backend tests: the leaf backends, and the contract every
backend and wrapper shares.

The fault-plan seed is taken from ``REPRO_FAULT_SEED`` (default 0) so CI can
sweep the wrapper contract over several deterministic fault schedules.
"""

import os

import pytest

from repro.errors import BackendError
from repro.io import PosixBackend, ReadRequest, VirtualBackend


FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture(params=["posix", "virtual"])
def backend(request, tmp_path):
    if request.param == "posix":
        return PosixBackend(tmp_path / "data")
    return VirtualBackend()


class TestCommonBehaviour:
    def test_write_read_roundtrip(self, backend):
        backend.write_file("a/b/file.bin", b"hello world")
        assert backend.read_file("a/b/file.bin") == b"hello world"

    def test_overwrite(self, backend):
        backend.write_file("f", b"one")
        backend.write_file("f", b"two")
        assert backend.read_file("f") == b"two"

    def test_exists_and_size(self, backend):
        assert not backend.exists("nope")
        backend.write_file("yes", b"1234")
        assert backend.exists("yes")
        assert backend.size("yes") == 4

    def test_read_range(self, backend):
        backend.write_file("r", bytes(range(100)))
        assert backend.read_range("r", 10, 5) == bytes([10, 11, 12, 13, 14])
        assert backend.read_range("r", 0, 0) == b""

    def test_read_range_past_end_raises(self, backend):
        backend.write_file("r", b"abc")
        with pytest.raises(BackendError):
            backend.read_range("r", 2, 10)

    def test_read_range_negative_rejected(self, backend):
        backend.write_file("r", b"abc")
        with pytest.raises(BackendError):
            backend.read_range("r", -1, 2)

    def test_read_missing_raises(self, backend):
        with pytest.raises(BackendError):
            backend.read_file("missing")

    def test_size_missing_raises(self, backend):
        with pytest.raises(BackendError):
            backend.size("missing")

    def test_listdir(self, backend):
        backend.write_file("d/x.bin", b"1")
        backend.write_file("d/y.bin", b"2")
        backend.write_file("other/z.bin", b"3")
        assert backend.listdir("d") == ["x.bin", "y.bin"]

    def test_delete(self, backend):
        backend.write_file("gone", b"1")
        backend.delete("gone")
        assert not backend.exists("gone")
        with pytest.raises(BackendError):
            backend.delete("gone")

    def test_path_traversal_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.write_file("../escape", b"x")

    def test_path_normalization(self, backend):
        backend.write_file("./a//b.bin", b"x")
        assert backend.exists("a/b.bin")


class TestVirtualRecording:
    def test_ops_recorded_in_order(self):
        vb = VirtualBackend()
        vb.write_file("f", b"abcd", actor=3)
        vb.read_file("f", actor=5)
        kinds = [op.kind for op in vb.ops]
        assert kinds == ["create", "write", "open", "read"]
        assert vb.ops[0].actor == 3
        assert vb.ops[3].nbytes == 4

    def test_overwrite_does_not_recreate(self):
        vb = VirtualBackend()
        vb.write_file("f", b"1")
        vb.write_file("f", b"2")
        assert len(vb.ops_of_kind("create")) == 1
        assert len(vb.ops_of_kind("write")) == 2

    def test_read_range_records_offset(self):
        vb = VirtualBackend()
        vb.write_file("f", bytes(100))
        vb.read_range("f", 40, 10, actor=1)
        read_op = vb.ops_of_kind("read")[0]
        assert read_op.offset == 40 and read_op.nbytes == 10

    def test_files_touched_by_actor(self):
        vb = VirtualBackend()
        vb.write_file("a", b"1")
        vb.write_file("b", b"2")
        vb.read_file("a", actor=0)
        vb.read_file("b", actor=1)
        assert vb.files_touched("open", actor=0) == {"a"}
        assert vb.files_touched("open") == {"a", "b"}

    def test_counters(self):
        vb = VirtualBackend()
        vb.write_file("a", b"123")
        vb.write_file("b", b"4567")
        assert vb.file_count() == 2
        assert vb.total_stored_bytes() == 7

    def test_clear_ops_keeps_files(self):
        vb = VirtualBackend()
        vb.write_file("a", b"1")
        vb.clear_ops()
        assert vb.ops == []
        assert vb.exists("a")

    def test_listdir_records_list_op(self):
        vb = VirtualBackend()
        vb.write_file("d/x", b"1")
        vb.listdir("d")
        assert len(vb.ops_of_kind("list")) == 1


class TestPrefixRecorderForwarding:
    """attach_recorder on a PrefixBackend must reach the base backend —
    every actual I/O op executes there, so counters attached only to the
    view would silently record nothing."""

    def test_counters_flow_through_prefix_view(self):
        from repro.io import PrefixBackend
        from repro.obs.names import IO_BYTES_READ, IO_READS, IO_WRITES
        from repro.obs.recorder import Recorder

        base = VirtualBackend()
        view = PrefixBackend(base, "step_0001")
        recorder = Recorder(rank=-1)
        view.attach_recorder(recorder)
        assert base.recorder is recorder  # forwarded, not just stored

        view.write_file("data/f.bin", b"abcdef")
        view.read_file("data/f.bin")
        assert recorder.total(IO_WRITES) == 1
        assert recorder.total(IO_READS) == 1
        # Counter keys carry the base backend's (full) path.
        assert recorder.value(IO_BYTES_READ, key=("step_0001/data/f.bin",)) == 6

    def test_detach_forwards_too(self):
        from repro.io import PrefixBackend
        from repro.obs.recorder import Recorder

        base = VirtualBackend()
        view = PrefixBackend(base, "p")
        view.attach_recorder(Recorder())
        view.attach_recorder(None)
        assert base.recorder is None and view.recorder is None


def _full_stack(tmp_path, hedger=None):
    from repro.io import SimulatedTransport, build_remote_stack

    stack = build_remote_stack(
        SimulatedTransport(VirtualBackend()),
        disk_cache_dir=str(tmp_path / "stack-cache"),
        hedger=hedger,
    )
    return stack, stack.base.base.base  # RAM -> disk -> resilient -> remote


LEAVES = ("posix", "virtual", "remote")
WRAPPERS = ("prefix", "fault", "caching", "diskcache", "resilient", "remote-stack")


def _build(name, tmp_path):
    """``(backend, leaf)``: the named backend and the innermost FileBackend
    of its chain, where the I/O actually runs."""
    from repro import io

    if name == "remote-stack":
        return _full_stack(tmp_path)
    if name == "posix":
        leaf = io.PosixBackend(tmp_path / "posix")
    elif name == "remote":
        leaf = io.RemoteBackend(io.SimulatedTransport(VirtualBackend()))
    else:
        leaf = VirtualBackend()
    if name == "prefix":
        return io.PrefixBackend(leaf, "step_0001"), leaf
    if name == "fault":
        return io.FaultInjectingBackend(leaf, io.FaultPlan(seed=FAULT_SEED)), leaf
    if name == "caching":
        return io.CachingBackend(leaf, 1 << 20), leaf
    if name == "diskcache":
        return io.DiskCacheBackend(leaf, tmp_path / "dcache", 1 << 20), leaf
    if name == "resilient":
        return io.ResilientBackend(leaf), leaf
    return leaf, leaf


SPELLINGS = ("read_range", "readinto", "readv")


def _ranged(backend, spelling, path, offset, length):
    """``length`` bytes at ``offset``, asked for in one of the three ways."""
    if spelling == "read_range":
        return backend.read_range(path, offset, length)
    buf = bytearray(length)
    if spelling == "readinto":
        got = backend.readinto(path, offset, buf)
    else:
        got = backend.readv(path, ReadRequest.one(offset, buf))
    assert got == length
    return bytes(buf)


def _clear_caches(backend):
    """Empty every cache tier of a chain so the next read reaches the leaf."""
    while backend is not None:
        if hasattr(backend, "clear"):
            backend.clear()
        backend = getattr(backend, "base", None)


class TestWrapperForwarding:
    """What :class:`WrapperBackend` forwards is inherited, so no wrapper can
    forget it: a recorder attached at the top reaches the leaf, where the
    I/O runs (hand-forwarding had drifted: the fault injector dropped it),
    and ``close`` reaches every layer that owns threads or handles."""

    @pytest.mark.parametrize("name", WRAPPERS)
    def test_recorder_attached_at_the_top_reaches_the_leaf(self, name, tmp_path):
        from repro.obs.names import IO_BYTES_READ, IO_READS
        from repro.obs.recorder import Recorder

        backend, leaf = _build(name, tmp_path)
        backend.write_file("data/f.bin", b"abcdef")
        recorder = Recorder(rank=-1)
        backend.attach_recorder(recorder)
        assert leaf.recorder is recorder
        assert backend.read_range("data/f.bin", 1, 4) == b"bcde"
        assert recorder.total(IO_READS) == 1
        assert recorder.total(IO_BYTES_READ) == 4
        backend.attach_recorder(None)
        assert leaf.recorder is None and backend.recorder is None

    def test_closing_the_remote_stack_joins_the_hedging_pool(self, tmp_path):
        import threading

        from repro.io import Hedger

        def hedge_threads():
            return [
                t
                for t in threading.enumerate()
                if t.name.startswith("repro-hedge") and t.is_alive()
            ]

        stack, _remote = _full_stack(tmp_path, Hedger())
        stack.write_file("f", b"0123456789")
        assert stack.read_range("f", 2, 3) == b"234"  # a hedged read: pool is up
        assert hedge_threads()
        stack.close()
        assert hedge_threads() == []
        assert stack.read_range("f", 4, 2) == b"45"  # still usable: pool refills
        stack.close()


class TestRangedReadContract:
    """One ranged read: ``read_range`` and ``readinto`` are a one-segment
    ``readv`` on every backend — same bytes, same counters, same op log,
    same errors — because they are defined once, over it."""

    DATA = bytes(range(256))

    @pytest.fixture(params=LEAVES + WRAPPERS)
    def pair(self, request, tmp_path):
        backend, leaf = _build(request.param, tmp_path)
        backend.write_file("d/f.bin", self.DATA)
        return backend, leaf

    def _observe(self, backend, leaf, spelling):
        """(bytes, io.* counter deltas, leaf op log) of one cold ranged read."""
        from repro.obs.recorder import Recorder

        _clear_caches(backend)
        if isinstance(leaf, VirtualBackend):
            leaf.clear_ops()
        recorder = Recorder(rank=-1)
        backend.attach_recorder(recorder)
        try:
            got = _ranged(backend, spelling, "d/f.bin", 40, 24)
        finally:
            backend.attach_recorder(None)
        counters = {
            k: v for k, v in recorder.counters().items() if k[0].startswith("io.")
        }
        return got, counters, list(getattr(leaf, "ops", ()))

    def test_three_spellings_one_read(self, pair):
        backend, leaf = pair
        backend.read_range("d/f.bin", 0, 1)  # pool the handle: equal footing
        seen = [self._observe(backend, leaf, spelling) for spelling in SPELLINGS]
        data, counters, _ops = seen[0]
        assert data == self.DATA[40:64]
        assert counters  # the read was counted somewhere
        assert seen[1] == seen[0] and seen[2] == seen[0]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_negative_offset_rejected(self, pair, spelling):
        backend, _leaf = pair
        with pytest.raises(BackendError, match=r"negative offset/length \(-1, 2\)"):
            _ranged(backend, spelling, "d/f.bin", -1, 2)

    def test_negative_length_rejected(self, pair):
        backend, _leaf = pair
        with pytest.raises(BackendError, match=r"negative offset/length \(0, -1\)"):
            backend.read_range("d/f.bin", 0, -1)

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_read_past_eof_is_a_short_read_error(self, pair, spelling):
        backend, _leaf = pair
        with pytest.raises(
            BackendError, match=r"short read from .*: wanted 10 bytes at 250"
        ):
            _ranged(backend, spelling, "d/f.bin", 250, 10)

    def test_injected_bit_flip_lands_identically(self):
        """A fault wrapper perturbs ``readv`` only, so a seeded flip hits the
        same bit whichever spelling the reader used."""
        from repro.io import FaultInjectingBackend, FaultPlan, FaultSpec

        def flipped(spelling):
            leaf = VirtualBackend()
            leaf.write_file("f", self.DATA)
            plan = FaultPlan((FaultSpec("bit_flip"),), seed=FAULT_SEED)
            return _ranged(FaultInjectingBackend(leaf, plan), spelling, "f", 40, 24)

        got = flipped("read_range")
        assert got == flipped("readinto") == flipped("readv")
        diff = int.from_bytes(got, "big") ^ int.from_bytes(self.DATA[40:64], "big")
        assert bin(diff).count("1") == 1

    def test_conveniences_are_defined_on_the_base_class_only(self):
        import importlib
        import inspect
        import pkgutil

        import repro.io
        from repro.io import FileBackend

        offenders = []
        for info in pkgutil.iter_modules(repro.io.__path__):
            module = importlib.import_module(f"repro.io.{info.name}")
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if cls is FileBackend or not issubclass(cls, FileBackend):
                    continue
                offenders += [
                    f"{cls.__name__}.{verb}"
                    for verb in ("read_range", "readinto")
                    if verb in vars(cls)
                ]
        assert offenders == []


class TestPosixSpecific:
    def test_root_created(self, tmp_path):
        root = tmp_path / "deep" / "root"
        PosixBackend(root)
        assert root.is_dir()

    def test_real_bytes_on_disk(self, tmp_path):
        b = PosixBackend(tmp_path)
        b.write_file("data/f.bin", b"\x00\x01\x02")
        assert (tmp_path / "data" / "f.bin").read_bytes() == b"\x00\x01\x02"

    def test_listdir_missing_raises(self, tmp_path):
        with pytest.raises(BackendError):
            PosixBackend(tmp_path).listdir("missing")


class TestCachingBackendEpochs:
    """Store-after-invalidate: a write that interleaves with an in-flight
    read must keep the pre-write bytes out of the cache (see the epoch
    guard in :mod:`repro.io.cache`)."""

    def test_concurrent_writer_cannot_recache_stale_bytes(self):
        import threading

        from repro.io import CachingBackend

        entered = threading.Event()
        gate = threading.Event()

        class GatedBackend(VirtualBackend):
            """Snapshots the answer, then stalls until the writer lands."""

            def readv(self, path, segments, actor=-1):
                total = super().readv(path, segments, actor=actor)
                entered.set()
                gate.wait(5.0)
                return total

        base = GatedBackend()
        base.write_file("f", b"old-old-old")
        cache = CachingBackend(base, max_bytes=1 << 20)
        got: dict[str, bytes] = {}
        reader = threading.Thread(
            target=lambda: got.update(r=cache.read_range("f", 0, 7))
        )
        reader.start()
        assert entered.wait(5.0)
        cache.write_file("f", b"new-new-new")  # invalidates mid-read
        gate.set()
        reader.join(5.0)
        # The in-flight read observed the pre-write world -- fine -- but
        # its result must not have been cached behind the write.
        assert got["r"] == b"old-old"
        assert cache.cached_bytes == 0
        assert cache.read_range("f", 0, 7) == b"new-new"

    def test_epoch_guard_survives_eviction_pressure(self):
        from repro.io import CachingBackend

        base = VirtualBackend()
        for i in range(6):
            base.write_file(f"f{i}", bytes([i]) * 40)
        cache = CachingBackend(base, max_bytes=100)
        for i in range(6):
            cache.read_file(f"f{i}")
        assert cache.evictions == 4
        assert cache.cached_bytes == 80
        # Invalidating an already-evicted path is a harmless no-op.
        cache.write_file("f0", b"zz")
        assert cache.read_file("f0") == b"zz"
        # The guard still rejects a stale store for a surviving path even
        # while evictions churn the LRU.
        epoch = cache._epoch("f5")
        stale = base.read_file("f5")
        cache.write_file("f5", b"fresh!")
        cache._store(("file", "f5"), "f5", stale, epoch)
        assert cache.read_file("f5") == b"fresh!"
