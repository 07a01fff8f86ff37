"""Multi-tenant serving layer: batched planning parity, admission, quotas.

The load-bearing property is **bit-identical parity**: any query served
through the batch planner (``stage_plans`` + staged ``engine.run``) or the
threaded :class:`~repro.serve.QueryService` must return exactly the bytes
and delivery-equivalent :class:`~repro.query.engine.ReadReport` that a
serial :meth:`QueryEngine.run` produces — including under projection, LOD,
fault injection, degraded mode, and a warm cache.
"""

import functools
import os
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WriterConfig
from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import AdmissionError, DeadlineExceededError, ServiceError
from repro.format.chunks import FileChunkIndex, Runs
from repro.format.manifest import Manifest
from repro.format.metadata import META_PATH, SpatialMetadata, table_crc32
from repro.io.executor import SerialExecutor, ThreadedExecutor
from repro.io.faults import FaultInjectingBackend, FaultPlan, FaultSpec
from repro.io.resilience import Deadline
from repro.io.retry import RetryPolicy
from repro.obs.names import (
    SERVER_BATCHES,
    SERVER_QUERIES,
    SERVER_REJECTED,
    SPAN_EXECUTOR_RUN,
)
from repro.obs.recorder import Recorder
from repro.query.engine import QueryPlan, StagedReads
from repro.serve import ClientQuota, QueryService, execute_batch, merge_runs, stage_plans

from .conftest import write_dataset

#: Same knob the CI fault matrix turns for test_failure_injection.py.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

BOXES = [
    Box([0.05, 0.05, 0.05], [0.55, 0.60, 0.50]),
    Box([0.30, 0.20, 0.10], [0.80, 0.70, 0.60]),
    Box([0.10, 0.40, 0.30], [0.60, 0.90, 0.85]),
    Box([0.25, 0.25, 0.25], [0.75, 0.75, 0.75]),
]


def _columnar_backend(**kw):
    backend, _, _ = write_dataset(
        nprocs=8,
        partition_factor=(1, 1, 2),
        particles_per_rank=800,
        config=WriterConfig(
            partition_factor=(1, 1, 2), layout="columnar", codec="shuffle-zlib"
        ),
        **kw,
    )
    return backend


def _row_backend(**kw):
    backend, _, _ = write_dataset(
        nprocs=8, partition_factor=(1, 1, 2), particles_per_rank=800, **kw
    )
    return backend


def _serial_results(backend, items, **ds_kw):
    """Reference: each (box, exact, kwargs) run alone on a fresh dataset."""
    engine = Dataset.open(backend, **ds_kw).engine()
    out = []
    for box, exact, kw in items:
        plan = engine.plan_box(box, **kw)
        out.append(engine.run(plan, exact))
    return out


class TestMergeRuns:
    def test_empty(self):
        assert merge_runs([]) == ()

    def test_disjoint_sorted(self):
        assert merge_runs([(10, 5), (0, 5)]) == ((0, 5), (10, 5))

    def test_adjacent_merge(self):
        assert merge_runs([(0, 5), (5, 5)]) == ((0, 10),)

    def test_overlap_and_containment(self):
        assert merge_runs([(0, 10), (2, 3), (8, 6), (20, 1)]) == ((0, 14), (20, 1))

    def test_zero_count_dropped(self):
        assert merge_runs([(3, 0), (1, 2)]) == ((1, 2),)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), max_size=30))
    def test_equals_the_sort_and_sweep_loop(self, runs):
        merged: list[list[int]] = []
        for start, count in sorted(r for r in runs if r[1] > 0):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], start + count)
            else:
                merged.append([start, start + count])
        got = merge_runs(runs)
        assert got == tuple((s, e - s) for s, e in merged)
        assert got.total == sum(e - s for s, e in merged)


class TestBatchParity:
    """execute_batch == serial, bit for bit, across layouts and plan shapes."""

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_exact_box_parity(self, layout):
        backend = _columnar_backend() if layout == "columnar" else _row_backend()
        items = [(box, True, {}) for box in BOXES]
        serial = _serial_results(backend, items)

        engine = Dataset.open(backend).engine()
        plans = [(engine.plan_box(box), exact) for box, exact, _kw in items]
        results, staged = execute_batch(engine, plans)

        assert staged.hits > 0  # the stage actually served fetches
        for s, b in zip(serial, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_mixed_projection_lod_inexact_parity(self):
        backend = _columnar_backend()
        items = [
            (BOXES[0], True, {}),
            (BOXES[0], True, {"attrs": ()}),  # positions only
            (BOXES[1], False, {}),  # candidate files, no chunk pruning
            (BOXES[1], True, {"max_level": 0}),  # LOD prefix: never staged
            (BOXES[2], True, {}),
        ]
        serial = _serial_results(backend, items)

        engine = Dataset.open(backend).engine()
        plans = [(engine.plan_box(box, **kw), exact) for box, exact, kw in items]
        results, staged = execute_batch(engine, plans)

        assert staged.misses > 0  # the LOD-prefix entries fell back
        for s, b in zip(serial, results):
            assert s.batch.data.dtype == b.batch.data.dtype
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_single_query_not_staged(self):
        backend = _columnar_backend()
        engine = Dataset.open(backend).engine()
        staged = stage_plans(engine, [(engine.plan_box(BOXES[0]), True)])
        assert len(staged) == 0  # nobody to share with

    def test_parity_under_transient_faults(self):
        """A transient read fault during staging is retried (or degrades to
        direct reads); either way results match the serial fault-free run.
        ``REPRO_FAULT_SEED`` picks the faulted file and how many reads of
        it fail before it heals."""
        rng = random.Random(FAULT_SEED)
        clean = _columnar_backend()
        expected = _serial_results(clean, [(box, True, {}) for box in BOXES])

        victim, heal_after = rng.choice(_data_paths(clean)), rng.randint(1, 3)
        faulty = FaultInjectingBackend(
            clean,
            FaultPlan(
                (FaultSpec("transient", op="read", path_glob=victim, heal_after=heal_after),)
            ),
        )
        engine = Dataset.open(
            faulty, retry=RetryPolicy(max_attempts=4, backoff_base=0.0)
        ).engine()
        plans = [(engine.plan_box(box), True) for box in BOXES]
        results, staged = execute_batch(engine, plans)
        assert faulty.faults_injected == heal_after
        assert staged.hits > 0
        for s, b in zip(expected, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_parity_with_a_permanently_faulted_shared_file(self):
        """Non-strict: the seed's victim file fails its staged read, so its
        entries fall back to direct reads — and skip, as serially — beside
        the stage-served entries of the other files."""
        rng = random.Random(FAULT_SEED)
        clean = _columnar_backend()
        victim = rng.choice(_data_paths(clean))
        faulty = FaultInjectingBackend(
            clean, FaultPlan((FaultSpec("permanent", op="read", path_glob=victim),))
        )
        ds_kw = dict(strict=False, retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
        items = [(box, True, {}) for box in BOXES]
        serial = _serial_results(faulty, items, **ds_kw)

        engine = Dataset.open(faulty, **ds_kw).engine()
        plans = [(engine.plan_box(box), exact) for box, exact, _kw in items]
        results, staged = execute_batch(engine, plans)
        assert len(staged) == len(_data_paths(clean)) - 1
        assert staged.hits > 0 and staged.misses == len(BOXES)
        for s, b in zip(serial, results):
            assert [p.path for p in b.report.skipped] == [victim]
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_parity_with_warm_cache(self):
        """Staging through a CachingBackend stays bit-identical after the
        cache has been warmed by serial traffic."""
        backend = _columnar_backend()
        ds = Dataset.open(backend, cache_bytes=64 * 1024 * 1024)
        engine = ds.engine()
        items = [(engine.plan_box(box), True) for box in BOXES]
        serial = [engine.run(p, e) for p, e in items]  # warms the cache
        results, staged = execute_batch(engine, items)
        assert staged.hits > 0
        for s, b in zip(serial, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batch_equals_serial_property(self, data):
        """Any batch of 2-8 queries answers each exactly as a serial run:
        same bytes, same dtype, delivery-equivalent report."""
        layout = data.draw(st.sampled_from(["row", "columnar"]), label="layout")
        backend, positions = _fixture(layout)
        items = data.draw(
            st.lists(_query(positions), min_size=2, max_size=8), label="queries"
        )
        serial = _serial_results(backend, items)
        engine = Dataset.open(backend).engine()
        plans = [(engine.plan_box(box, **kw), exact) for box, exact, kw in items]
        results, _staged = execute_batch(engine, plans)
        for s, b in zip(serial, results):
            assert s.batch.data.dtype == b.batch.data.dtype
            assert s.batch.data.tobytes() == b.batch.data.tobytes()
            assert s.report.equivalent(b.report)

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_mixed_plan_shared_and_unshared_file(self, layout):
        """One query reads a shared file from the stage and an unshared one
        directly; the pieces join in plan order."""
        backend = _columnar_backend() if layout == "columnar" else _row_backend()
        both = Box([0.1, 0.1, 0.1], [0.4, 0.9, 0.9])  # two files
        one = Box([0.1, 0.1, 0.1], [0.4, 0.4, 0.9])  # the first of them
        items = [(both, True, {}), (one, True, {"attrs": ()})]
        serial = _serial_results(backend, items)

        engine = Dataset.open(backend).engine()
        plans = [(engine.plan_box(box, **kw), exact) for box, exact, kw in items]
        assert [p.num_files for p, _ in plans] == [2, 1]
        results, staged = execute_batch(engine, plans)
        assert len(staged) == 1 and staged.hits == 2 and staged.misses == 1
        for s, b in zip(serial, results):
            assert s.batch.data.dtype == b.batch.data.dtype
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_fully_staged_batch_never_starts_the_pool(self):
        """Stage-served entries are answered on the calling thread: a batch
        whose every entry is staged makes no executor call at all."""
        backend = _row_backend()
        items = [(box, True, {}) for box in (BOXES[0], BOXES[0], BOXES[3], BOXES[3])]
        serial = _serial_results(backend, items)

        executor = ThreadedExecutor(max_workers=2)
        engine = Dataset.open(backend, executor=executor).engine()
        plans = [(engine.plan_box(box), exact) for box, exact, _kw in items]
        assert all(p.num_files > 1 for p, _ in plans)
        rec = Recorder(rank=-1)
        results, staged = execute_batch(engine, plans, recorder=rec)
        try:
            assert staged.misses == 0
            assert staged.hits == sum(p.num_files for p, _ in plans)
            assert executor._pool is None
            assert not [sp for sp in rec.spans if sp.name == SPAN_EXECUTOR_RUN]
            for s, b in zip(serial, results):
                assert np.array_equal(s.batch.data, b.batch.data)
                assert s.report.equivalent(b.report)
        finally:
            executor.shutdown()

    def test_tightened_chunk_index_misses_the_same_particle(self):
        """A CRC-valid index whose chunk bounds are tighter than its
        particles makes the direct read miss them; the staged answer,
        masked by the query's own runs, misses exactly the same ones even
        though another query staged the chunk that holds them."""
        backend = _row_backend()
        ds = Dataset.open(backend)
        rec = ds.metadata.records[0]
        index = ds.chunk_index(rec)
        rows = ds.engine().run(QueryPlan([(rec, rec.particle_count)])).batch.data
        j = len(index) // 2
        chunk = rows[index.starts[j] : index.starts[j] + index.counts[j]]
        point = chunk["position"][np.argmax(chunk["position"][:, 0])]
        lo, hi = index.lo.copy(), index.hi.copy()
        lo[j] = hi[j] = point  # the chunk claims to hold one point
        lying = FileChunkIndex(
            index.starts, index.counts, lo, hi, index.attr_ranges,
            index.segments, index.codec, index.attr_names,
        )
        _commit_section(backend, 0, lying.to_section())

        below = rec.bounds.hi.copy()
        below[0] = np.nextafter(point[0], -np.inf)
        short = Box(rec.bounds.lo, below)  # every chunk but j intersects it
        at_point = Box(point - 1e-9, point + 1e-9)  # selects chunk j
        items = [(short, True, {}), (at_point, True, {})]
        serial = _serial_results(backend, items)
        truth = short.contains_points(rows["position"], closed=True)
        missed = np.setdiff1d(rows["id"][truth], serial[0].batch.data["id"])
        assert len(missed) and np.isin(missed, chunk["id"]).all()

        engine = Dataset.open(backend).engine()
        plans = [(engine.plan_box(box), exact) for box, exact, _kw in items]
        read = np.concatenate([np.arange(s, s + c) for s, c in plans[0][0].chunk_runs[0]])
        assert index.starts[j] not in read and index.starts[j] - 1 in read
        results, staged = execute_batch(engine, plans)
        assert staged.hits >= 2 and staged.misses == 0
        for s, b in zip(serial, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)

    def test_expired_deadline_sheds_stage_served_entries(self):
        """An entry the stage would serve is shed before the stage is asked,
        with the skip (or, strict, the error) a direct read gives."""
        clock = [0.0]
        deadline = Deadline.after(1.0, clock=lambda: clock[0])
        engine = Dataset.open(_row_backend(), strict=False).engine()
        plans = [(engine.plan_box(box), True) for box in BOXES[:2]]
        staged = stage_plans(engine, plans)
        assert len(staged) > 0
        clock[0] = 2.0
        for plan, exact in plans:
            direct = engine.run(plan, exact, deadline=deadline)
            batched = engine.run(plan, exact, staged=staged, deadline=deadline)
            assert len(batched) == 0
            assert {s.reason for s in batched.report.skipped} == {"deadline"}
            assert direct.report.equivalent(batched.report)
            assert [s.error for s in direct.report.skipped] == [
                s.error for s in batched.report.skipped
            ]
        assert staged.hits == 0 and staged.misses == 0
        plan = plans[0][0]
        with pytest.raises(DeadlineExceededError) as direct_exc:
            engine.run(plan, True, strict=True, deadline=deadline)
        with pytest.raises(DeadlineExceededError) as batched_exc:
            engine.run(plan, True, strict=True, staged=staged, deadline=deadline)
        assert str(direct_exc.value) == str(batched_exc.value)

    def test_staged_select_miss_on_uncovered_run(self):
        """A run outside the staged union, or reaching past its merged run,
        misses instead of answering from the wrong rows."""
        staged = StagedReads()
        buf = np.zeros(10, dtype=[("position", "<f8", (3,))])
        buf["position"][:, 0] = np.arange(10.0)
        staged.stage("data/file_0.pbin", ((0, 10),), buf)

        def select(runs):
            return staged.select(_Rec(), 5, Runs.of(runs), buf.dtype, _keep_all)

        assert select(((50, 5),)) is None
        assert select(((8, 5),)) is None
        got = select(((2, 5),))
        assert got is not None
        assert np.array_equal(got["position"][:, 0], np.arange(2.0, 7.0))
        assert staged.hits == 1 and staged.misses == 2

    def test_staged_select_answers_many_runs(self):
        """Runs resolve against the merged runs in one pass; the span they
        cover is masked down to exactly their rows, in order — whole
        records and projected fields alike — and the predicate filters
        those rows only."""
        full = np.dtype([("position", "<f8", (3,)), ("a", "<f8"), ("b", "<i4")])
        merged = ((10, 20), (50, 5), (70, 30))
        ids = np.concatenate([np.arange(s, s + c) for s, c in merged])
        buf = np.zeros(len(ids), dtype=full)
        buf["position"] = ids[:, None] + np.array([0.0, 0.25, 0.5])
        buf["a"], buf["b"] = ids / 2, ids * 2
        staged = StagedReads()
        staged.stage("data/file_0.pbin", merged, buf)

        want = Runs.of(((12, 3), (29, 1), (50, 5), (75, 10)))
        expect = np.concatenate([np.arange(s, s + c) for s, c in want])
        projected = np.dtype([("position", "<f8", (3,)), ("b", "<i4")])
        for dtype in (full, projected):
            got = staged.select(_Rec(), 0, want, dtype, _keep_all)
            assert got.dtype == dtype
            assert np.array_equal(got["b"], expect * 2)
            assert np.array_equal(got["position"][:, 1], expect + 0.25)
            assert not np.shares_memory(got, buf)  # an answer, not a view

        # The predicate sees the span (own-run rows and the rows between
        # them) and keeps only own-run rows it accepts.
        def even(rows):
            return rows["b"] % 4 == 0

        got = staged.select(_Rec(), 0, want, projected, even)
        assert np.array_equal(got["b"], expect[expect % 2 == 0] * 2)

        # A run reaching past its merged run, a run before every merged
        # run, runs out of order, a field the stage did not decode and an
        # LOD prefix all miss.
        for runs, dtype, count in (
            (((28, 3),), full, 0),
            (((5, 3),), full, 0),
            (((50, 5), (12, 3)), full, 0),
            (want, np.dtype([("position", "<f8", (3,)), ("c", "<f8")]), 0),
            (None, full, 50),
        ):
            runs = None if runs is None else Runs.of(runs)
            assert staged.select(_Rec(), count, runs, dtype, _keep_all) is None
        assert staged.hits == 3 and staged.misses == 5


class _Rec:
    file_path = "data/file_0.pbin"
    particle_count = 100


def _keep_all(rows):
    return None


def _data_paths(backend):
    return sorted(f"data/{n}" for n in backend.listdir("data") if n.endswith(".pbin"))


@functools.cache
def _fixture(layout):
    """The row or columnar fixture, and every particle position in it."""
    backend = _columnar_backend() if layout == "columnar" else _row_backend()
    engine = Dataset.open(backend).engine()
    return backend, engine.run(engine.plan_full()).batch.data["position"]


@st.composite
def _query(draw, positions):
    """One ``(box, exact, plan kwargs)``: a random box, or one whose faces
    sit on particle coordinates; exact or not; projected and/or filtered."""
    if draw(st.booleans()):
        a, b = (positions[draw(st.integers(0, len(positions) - 1))] for _ in "ab")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    else:
        corners = np.array(draw(st.lists(st.floats(0, 1), min_size=6, max_size=6)))
        lo, hi = np.minimum(corners[:3], corners[3:]), np.maximum(corners[:3], corners[3:])
    kw: dict = {"attrs": draw(st.sampled_from([None, (), ("id",)]))}
    if draw(st.booleans()):
        ids = sorted(draw(st.integers(0, 7000)) for _ in "ab")
        kw["where"] = {"id": (float(ids[0]), float(ids[1]))}
    return Box(lo, hi), draw(st.booleans()), kw


def _commit_section(backend, index, section):
    """Swap record ``index``'s chunk section and re-commit the table's CRC
    in the manifest: a CRC-valid table carrying ``section``."""
    meta = SpatialMetadata.read_whole(backend)
    meta.records[index].section = section
    blob = meta.to_bytes()
    backend.write_file(META_PATH, blob)
    manifest = Manifest.read(backend)
    manifest.spatial_meta_crc32 = table_crc32(blob)
    manifest.write(backend)


class TestQueryService:
    def test_service_parity_and_stats(self):
        backend = _columnar_backend()
        items = [(box, True, {}) for box in BOXES * 3]
        serial = _serial_results(backend, items)

        rec = Recorder(rank=-1)
        with QueryService(
            Dataset.open(backend, executor=SerialExecutor()),
            max_workers=2,
            max_batch=len(items),
            autostart=False,
            recorder=rec,
        ) as service:
            futures = [service.submit(box) for box, _e, _kw in items]
            service.start()
            results = [f.result(timeout=60) for f in futures]
            stats = service.stats()

        for s, b in zip(serial, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert s.report.equivalent(b.report)
        assert stats["queries"] == len(items)
        assert stats["pending"] == 0
        assert stats["batches"] >= 1
        assert stats["mean_batch_width"] > 1.0
        assert stats["staged_files"] > 0
        assert stats["ops_saved"] > 0
        assert stats["p99_latency_s"] >= stats["p50_latency_s"] > 0.0
        assert rec.value(SERVER_QUERIES, ("anon",)) == len(items)
        assert rec.value(SERVER_BATCHES) == stats["batches"]

    def test_stats_percentiles_match_the_sort_per_call_helper(self, monkeypatch):
        """stats() sorts one snapshot outside the lock submit() takes and
        reads both percentiles from it; the values are the old helper's."""

        def old_percentile(values, q):  # sorted its input on every call
            if not values:
                return 0.0
            ordered = sorted(values)
            pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
            return ordered[int(pos)]

        service = QueryService(Dataset.open(_row_backend()), autostart=False)
        held = []
        percentile = QueryService._percentile

        def probe(ordered, q):
            held.append(service._cond._is_owned())
            return percentile(ordered, q)

        monkeypatch.setattr(QueryService, "_percentile", staticmethod(probe))
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 7, 100, 1001):
            latencies = rng.exponential(size=n).tolist()
            service._latencies[:] = latencies
            stats = service.stats()
            assert stats["p50_latency_s"] == old_percentile(latencies, 0.50)
            assert stats["p99_latency_s"] == old_percentile(latencies, 0.99)
            assert service._latencies == latencies  # the snapshot was sorted
        assert held and not any(held)
        service.close()

    def test_multi_dataset_routing_and_unknown_rejection(self):
        a, b = _columnar_backend(seed=7), _row_backend(seed=11)
        with QueryService(
            {"colA": Dataset.open(a), "rowB": Dataset.open(b)}
        ) as service:
            ra = service.query(BOXES[0], dataset="colA")
            rb = service.query(BOXES[0], dataset="rowB")
            assert ra.batch.data.size != 0 and rb.batch.data.size != 0
            expected_a = Dataset.open(a).engine()
            sa = expected_a.run(expected_a.plan_box(BOXES[0]), True)
            assert np.array_equal(sa.batch.data, ra.batch.data)
            with pytest.raises(AdmissionError) as exc:
                service.submit(BOXES[0], dataset="nope")
            assert exc.value.reason == "unknown-dataset"

    def test_admission_closed_and_queue_full(self):
        backend = _row_backend()
        service = QueryService(
            Dataset.open(backend), max_pending=2, autostart=False
        )
        service.submit(BOXES[0])
        service.submit(BOXES[1])
        with pytest.raises(AdmissionError) as exc:
            service.submit(BOXES[2])
        assert exc.value.reason == "queue-full"
        service.start()
        service.close()
        with pytest.raises(AdmissionError) as exc:
            service.submit(BOXES[0])
        assert exc.value.reason == "closed"
        assert service.recorder.value(SERVER_REJECTED, ("queue-full",)) == 1
        assert service.recorder.value(SERVER_REJECTED, ("closed",)) == 1

    def test_quota_inflight(self):
        backend = _row_backend()
        service = QueryService(
            Dataset.open(backend),
            quota=ClientQuota(max_inflight=1),
            autostart=False,
        )
        f = service.submit(BOXES[0], client="greedy")
        with pytest.raises(AdmissionError) as exc:
            service.submit(BOXES[1], client="greedy")
        assert exc.value.reason == "client-inflight"
        # A different client is unaffected.
        g = service.submit(BOXES[1], client="modest")
        service.start()
        assert f.result(timeout=60).batch.data is not None
        assert g.result(timeout=60).batch.data is not None
        # Inflight released on completion: admitted again.
        service.query(BOXES[2], client="greedy")
        service.close()

    def test_quota_bytes_budget(self):
        backend = _row_backend()
        with QueryService(
            Dataset.open(backend), quota=ClientQuota(max_bytes=1)
        ) as service:
            first = service.query(BOXES[0], client="capped")
            assert first.batch.data.nbytes > 1  # budget now exhausted
            with pytest.raises(AdmissionError) as exc:
                service.submit(BOXES[1], client="capped")
            assert exc.value.reason == "client-bytes"
            # Other clients keep their own budgets.
            service.query(BOXES[1], client="fresh")

    def test_poisoned_query_does_not_wedge_siblings(self):
        """A query that fails planning resolves its own future with the
        error; every sibling in the same batch still completes."""
        backend = _columnar_backend()
        engine = Dataset.open(backend).engine()
        good = engine.run(engine.plan_box(BOXES[0]), True)

        with QueryService(
            Dataset.open(backend), max_batch=8, autostart=False
        ) as service:
            bad = service.submit("not-a-box")
            siblings = [service.submit(BOXES[0]) for _ in range(3)]
            service.start()
            with pytest.raises(Exception):
                bad.result(timeout=60)
            for f in siblings:
                got = f.result(timeout=60)
                assert np.array_equal(got.batch.data, good.batch.data)

    def test_close_drains_admitted_queries(self):
        backend = _row_backend()
        service = QueryService(Dataset.open(backend), autostart=False)
        futures = [service.submit(box) for box in BOXES]
        service.start()
        service.close()
        for f in futures:
            assert f.result(timeout=1).batch.data is not None

    def test_close_without_start_fails_futures(self):
        backend = _row_backend()
        service = QueryService(Dataset.open(backend), autostart=False)
        f = service.submit(BOXES[0])
        service.close()
        with pytest.raises(ServiceError):
            f.result(timeout=1)

    def test_concurrent_submitters_hammer(self):
        """Many client threads, small windows, real batching — every query
        resolves and matches the serial reference for its box."""
        backend = _columnar_backend()
        engine = Dataset.open(backend).engine()
        expected = {
            i: engine.run(engine.plan_box(box), True) for i, box in enumerate(BOXES)
        }

        errors: list[BaseException] = []
        with QueryService(
            Dataset.open(backend, executor=SerialExecutor()),
            max_workers=4,
            batch_window=0.005,
            max_batch=8,
        ) as service:

            def client(tid: int) -> None:
                try:
                    for j in range(6):
                        i = (tid + j) % len(BOXES)
                        got = service.query(BOXES[i], client=f"t{tid}")
                        ref = expected[i]
                        assert np.array_equal(got.batch.data, ref.batch.data)
                        assert ref.report.equivalent(got.report)
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = service.stats()

        assert not errors, errors
        assert stats["queries"] == 8 * 6
        assert stats["pending"] == 0


class _GatedExecutor(SerialExecutor):
    """Holds every run() until ``release`` is set; ``entered`` marks the
    first batch reaching the executor."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, tasks, recorder, fail_fast=False):
        self.entered.set()
        assert self.release.wait(timeout=60)
        return super().run(tasks, recorder, fail_fast)


class TestServiceWakeups:
    """submit() wakes the dispatcher only when the queue turns non-empty
    or fills to max_batch; no admitted query may wait on a lost wake-up."""

    def test_short_burst_dispatches_after_the_window(self):
        window = 0.2
        with QueryService(
            Dataset.open(_row_backend()), batch_window=window, max_batch=16
        ) as service:
            time.sleep(0.05)  # the dispatcher is now idle on an empty queue
            t0 = time.monotonic()
            futures = [service.submit(box) for box in BOXES[:3]]
            for f in futures:
                assert f.result(timeout=10).batch.data is not None
            elapsed = time.monotonic() - t0
            stats = service.stats()
        assert elapsed >= window
        assert stats["batches"] == 1
        assert stats["mean_batch_width"] == 3

    def test_burst_before_start_is_one_full_batch(self):
        with QueryService(
            Dataset.open(_row_backend()),
            batch_window=30.0,
            max_batch=16,
            autostart=False,
        ) as service:
            futures = [service.submit(BOXES[i % 4]) for i in range(16)]
            t0 = time.monotonic()
            service.start()
            for f in futures:
                assert f.result(timeout=60).batch.data is not None
            elapsed = time.monotonic() - t0
            stats = service.stats()
        assert elapsed < 30.0  # a full queue never waits out the window
        assert stats["batches"] == 1
        assert stats["mean_batch_width"] == 16

    def test_filling_the_window_wakes_the_dispatcher(self):
        with QueryService(
            Dataset.open(_row_backend()), batch_window=30.0, max_batch=4
        ) as service:
            futures = [service.submit(BOXES[0])]
            time.sleep(0.05)  # the dispatcher is now waiting out the window
            futures += [service.submit(box) for box in BOXES[1:]]
            for f in futures:
                assert f.result(timeout=10).batch.data is not None
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["mean_batch_width"] == 4

    def test_queries_submitted_during_a_running_batch_complete(self):
        executor = _GatedExecutor()
        with QueryService(
            Dataset.open(_row_backend(), executor=executor),
            max_workers=1,
            batch_window=0.01,
            max_batch=16,
        ) as service:
            first = service.submit(BOXES[0])
            assert executor.entered.wait(timeout=10)
            # The first batch is running.  Each wave arrives while the
            # dispatcher is idle on an empty queue and stays below
            # max_batch, so only the non-empty wake-up dispatches it.
            later = []
            for wave in range(3):
                time.sleep(0.05)
                later += [service.submit(BOXES[(wave + i) % 4]) for i in range(2)]
            executor.release.set()
            for f in [first, *later]:
                assert f.result(timeout=10).batch.data is not None
            stats = service.stats()
        assert stats["queries"] == 7
        assert stats["batches"] >= 2


class TestServiceDegraded:
    def test_degraded_batch_parity_with_permanent_fault(self):
        """A permanently unreadable file is skipped identically whether the
        query runs alone or inside a batch (the stage fails for that file
        and every query degrades to its own direct read + skip)."""
        clean = _columnar_backend()
        target = "data/" + sorted(
            n for n in clean.listdir("data") if n.endswith(".pbin")
        )[0]
        faulty = FaultInjectingBackend(
            clean,
            FaultPlan((FaultSpec("permanent", op="read", path_glob=target),)),
        )
        ds_kw = dict(strict=False, retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
        big = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        items = [(big, True, {}), (big, True, {}), (BOXES[0], True, {})]
        serial = _serial_results(faulty, items, **ds_kw)
        assert any(s.report.skipped_boxes() for s in serial)

        engine = Dataset.open(faulty, **ds_kw).engine()
        plans = [(engine.plan_box(box), exact) for box, exact, _kw in items]
        results, _staged = execute_batch(engine, plans)
        for s, b in zip(serial, results):
            assert np.array_equal(s.batch.data, b.batch.data)
            assert sorted(s.report.skipped_boxes()) == sorted(b.report.skipped_boxes())


class TestStalePlan:
    def test_generation_pinned_plan_rejected_after_recompact(self):
        """A plan carries the generation it was made against; executing it
        after the dataset has moved on raises instead of mixing snapshots."""
        from repro.core.compact import compact_dataset
        from repro.errors import QueryError

        backend = _row_backend()
        ds = Dataset.open(backend)
        engine = ds.engine()
        plan = engine.plan_box(BOXES[0])
        engine.run(plan, True)  # fine while current

        compact_dataset(backend)
        ds.invalidate_cache()
        with pytest.raises(QueryError, match="generation"):
            engine.run(plan, True)
        # Replanning against the new generation works.
        fresh = engine.plan_box(BOXES[0])
        engine.run(fresh, True)


class TestDeadlineAdmission:
    """The "deadline" admission reason and queued-deadline shedding
    (satellites of the resilience layer; see repro.io.resilience)."""

    def test_unmeetable_deadline_rejected_at_admission(self):
        backend = _row_backend()
        with QueryService(
            Dataset.open(backend), batch_window=0.05, autostart=False
        ) as service:
            with pytest.raises(AdmissionError) as exc:
                service.submit(BOXES[0], deadline_s=0.01)
            assert exc.value.reason == "deadline"
            assert service.recorder.value(SERVER_REJECTED, ("deadline",)) == 1
            service.start()

    def test_deadline_expiring_in_queue_fails_that_future(self):
        from repro.errors import DeadlineExceededError
        from repro.obs.names import DEADLINE_SHED

        backend = _row_backend()
        service = QueryService(
            Dataset.open(backend), batch_window=0.0, autostart=False
        )
        doomed = service.submit(BOXES[0], deadline_s=0.05)
        healthy = service.submit(BOXES[1])
        time.sleep(0.1)  # the queued deadline lapses before dispatch
        service.start()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=60)
        assert healthy.result(timeout=60).batch.data is not None
        service.close()
        assert service.recorder.total(DEADLINE_SHED) == 1

    def test_close_drain_accounting(self):
        backend = _row_backend()
        service = QueryService(Dataset.open(backend), autostart=False)
        futures = [service.submit(box) for box in BOXES[:3]]
        service.start()
        service.close(drain_timeout=60.0)
        assert all(f.done() and f.exception() is None for f in futures)
        stats = service.stats()
        assert stats["drained"] == 3
        assert stats["cancelled"] == 0
