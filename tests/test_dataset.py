"""The Dataset facade: one open/validate lifecycle for every consumer."""

import pytest

from repro.core.reader import SpatialReader
from repro.dataset import Dataset, as_dataset, open_dataset
from repro.errors import FormatError, MetadataError
from repro.io import PosixBackend, RetryPolicy, SerialExecutor, ThreadedExecutor
from repro.io.virtual import VirtualBackend
from repro.obs.names import PHASE_METADATA
from repro.obs.recorder import Recorder

from tests.conftest import write_dataset


@pytest.fixture
def backend():
    backend, _, _ = write_dataset(nprocs=8, partition_factor=(2, 2, 2))
    return backend


class TestLifecycle:
    def test_construction_never_touches_storage(self):
        ds = Dataset(VirtualBackend())  # empty backend: would fail to load
        assert not ds.loaded

    def test_open_is_eager(self, backend):
        ds = Dataset.open(backend)
        assert ds.loaded
        assert ds.total_particles == 8 * 500
        assert ds.num_files == len(ds.metadata)

    def test_lazy_properties_load_on_demand(self, backend):
        ds = Dataset(backend)
        assert not ds.loaded
        assert ds.manifest.total_particles == 8 * 500
        assert ds.loaded  # one property access loaded both pieces

    def test_load_is_idempotent(self, backend):
        ds = Dataset(backend).load()
        manifest = ds.manifest
        ds.load()
        assert ds.manifest is manifest

    def test_load_records_metadata_span(self, backend):
        ds = Dataset.open(backend)
        assert PHASE_METADATA in [s.name for s in ds.recorder.spans]

    def test_open_missing_dataset_raises_format_error(self):
        with pytest.raises(FormatError):
            Dataset.open(VirtualBackend())

    def test_open_dataset_alias(self, backend):
        assert open_dataset(backend).loaded


class TestPathCoercion:
    def test_path_becomes_readonly_posix_backend(self, tmp_path):
        target = tmp_path / "nonexistent"
        ds = Dataset(str(target))
        assert isinstance(ds.backend, PosixBackend)
        # Read-only coercion: constructing the facade must not create the
        # directory (CLI read commands rely on this).
        assert not target.exists()

    def test_backend_passes_through(self, backend):
        assert Dataset(backend).backend is backend


class TestPolicyBundle:
    def test_defaults(self, backend):
        ds = Dataset(backend)
        assert ds.strict
        assert isinstance(ds.retry, RetryPolicy)
        assert isinstance(ds.executor, SerialExecutor)
        assert ds.recorder.rank == 0

    def test_custom_bundle_flows_into_reader(self, backend):
        recorder = Recorder(rank=5)
        executor = ThreadedExecutor(max_workers=2)
        retry = RetryPolicy.immediate(max_attempts=7)
        ds = Dataset(
            backend, strict=False, retry=retry, recorder=recorder, executor=executor
        )
        reader = ds.reader()
        assert isinstance(reader, SpatialReader)
        assert reader.recorder is recorder
        assert reader.executor is executor
        assert reader.retry is retry
        assert not reader.strict

    def test_reader_adopts_loaded_dataset(self, backend):
        ds = Dataset.open(backend)
        reader = ds.reader()
        assert reader.dataset is ds
        assert reader.manifest is ds.manifest
        assert reader.metadata is ds.metadata

    def test_spatial_reader_accepts_dataset_or_backend(self, backend):
        via_facade = SpatialReader(Dataset(backend))
        via_backend = SpatialReader(backend)
        assert via_facade.total_particles == via_backend.total_particles


class TestGranularReads:
    def test_read_manifest_is_uncached(self, backend):
        ds = Dataset(backend)
        assert ds.read_manifest() is not ds.read_manifest()
        assert not ds.loaded  # granular reads never populate the cache

    def test_read_metadata_matches_loaded(self, backend):
        ds = Dataset.open(backend)
        assert len(ds.read_metadata()) == len(ds.metadata)

    def test_existence_probes(self, backend):
        ds = Dataset(backend)
        assert ds.manifest_exists() and ds.metadata_exists()
        backend.delete("spatial.meta")
        assert ds.manifest_exists() and not ds.metadata_exists()
        with pytest.raises(MetadataError):
            ds.read_metadata()


class TestConsumers:
    def test_scrub_clean_dataset(self, backend):
        report = Dataset(backend).scrub()
        assert report.ok and report.complete

    def test_is_complete(self, backend):
        assert Dataset(backend).is_complete()
        backend.delete("manifest.json")
        assert not Dataset(backend).is_complete()

    def test_reader_query_matches_direct_construction(self, backend):
        from repro.domain import Box

        box = Box([0.1, 0.1, 0.1], [0.6, 0.6, 0.6])
        a = Dataset.open(backend).reader().read_box(box)
        b = SpatialReader(backend).read_box(box)
        assert a.tobytes() == b.tobytes()


class TestAsDataset:
    def test_facade_passes_through(self, backend):
        ds = Dataset(backend, strict=False)
        assert as_dataset(ds) is ds

    def test_backend_is_wrapped(self, backend):
        ds = as_dataset(backend)
        assert isinstance(ds, Dataset)
        assert ds.backend is backend


def test_repr_shows_state(backend):
    ds = Dataset(backend)
    assert "unloaded" in repr(ds)
    ds.load()
    assert "loaded" in repr(ds)


class TestConcurrentMemoization:
    """The facade is shared by every serving-layer client: its lazy
    resolution/load and planning-table memos must be safe (and stable)
    under concurrent first access and concurrent invalidation."""

    def test_memo_hammer(self, backend):
        import threading

        ds = Dataset(backend)  # deliberately unloaded: races the first load
        errors: list[BaseException] = []
        engines: list[object] = []
        barrier = threading.Barrier(12, timeout=10)

        def hammer(tid: int) -> None:
            try:
                barrier.wait()
                for j in range(20):
                    ds.load()
                    ds.lod_prefix_table(0, 1)
                    ds.box_id_index()
                    for rec in ds.metadata.records[:2]:
                        ds.chunk_index(rec)
                    engines.append(ds.engine())
                    if tid == 0 and j % 5 == 0:
                        ds.invalidate_cache()
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        # The engine memo survives invalidation: one engine, ever.
        assert len(set(id(e) for e in engines)) == 1

    def test_engine_memoized_and_survives_invalidate(self, backend):
        ds = Dataset.open(backend)
        engine = ds.engine()
        assert ds.engine() is engine
        ds.invalidate_cache()
        assert ds.engine() is engine


class TestCacheEpochGuard:
    """A read that raced a write must not re-populate the cache with the
    stale bytes it happened to observe."""

    def test_store_after_invalidate_is_refused(self):
        from repro.io.cache import CachingBackend

        inner = VirtualBackend()
        inner.write_file("a.bin", b"old")
        cache = CachingBackend(inner, max_bytes=1 << 20)

        real_read = inner.read_file
        raced = []

        def racing_read(path, actor=-1):
            data = real_read(path, actor)
            if path == "a.bin" and not raced:
                raced.append(True)
                # The write lands between the base read and the store.
                cache.write_file("a.bin", b"new")
            return data

        inner.read_file = racing_read
        try:
            first = cache.read_file("a.bin")  # raced: sees the old bytes...
            assert first == b"old"
            # ...but must not have cached them past the interleaved write.
            assert cache.read_file("a.bin") == b"new"
            assert cache.read_file("a.bin") == b"new"  # and the new bytes cache
        finally:
            inner.read_file = real_read

    def test_range_store_after_invalidate_is_refused(self):
        from repro.io.cache import CachingBackend

        inner = VirtualBackend()
        inner.write_file("b.bin", b"0123456789")
        cache = CachingBackend(inner, max_bytes=1 << 20)

        real_readv = inner.readv
        raced = []

        def racing_readv(path, segments, actor=-1):
            total = real_readv(path, segments, actor)
            if path == "b.bin" and not raced:
                raced.append(True)
                cache.write_file("b.bin", b"ABCDEFGHIJ")
            return total

        inner.readv = racing_readv
        try:
            assert cache.read_range("b.bin", 2, 4) == b"2345"
            assert cache.read_range("b.bin", 2, 4) == b"CDEF"
        finally:
            inner.readv = real_readv
