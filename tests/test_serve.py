"""Multi-tenant serving layer: batched planning parity, admission, quotas.

The load-bearing property is **bit-identical parity**: any query served
through the batch planner (``stage_plans`` + staged ``engine.run``) or the
threaded :class:`~repro.serve.QueryService` must return exactly the bytes
and delivery-equivalent :class:`~repro.query.engine.ReadReport` that a
serial :meth:`QueryEngine.run` produces — including under projection, LOD,
fault injection, degraded mode, and a warm cache.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WriterConfig
from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import AdmissionError, ServiceError
from repro.io.executor import SerialExecutor
from repro.io.faults import FaultInjectingBackend, FaultPlan, FaultSpec
from repro.io.retry import RetryPolicy
from repro.obs.names import SERVER_BATCHES, SERVER_QUERIES, SERVER_REJECTED
from repro.obs.recorder import Recorder
from repro.serve import ClientQuota, QueryService, execute_batch, merge_runs, stage_plans

from .conftest import write_dataset

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
        direct reads); either way results match the serial fault-free run."""
        clean = _columnar_backend()
        expected = _serial_results(clean, [(box, True, {}) for box in BOXES])

        faulty = FaultInjectingBackend(
            clean,
            FaultPlan(
                (FaultSpec("transient", op="read", path_glob="data/*.pbin", heal_after=1),)
            ),
        )
        engine = Dataset.open(
            faulty, retry=RetryPolicy(max_attempts=4, backoff_base=0.0)
        ).engine()
        plans = [(engine.plan_box(box), True) for box in BOXES]
        results, _staged = execute_batch(engine, plans)
        assert faulty.faults_injected > 0
        for s, b in zip(expected, results):
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

    def test_staged_fetch_miss_on_uncovered_run(self):
        """A run outside the staged union misses instead of mis-copying."""
        from repro.query.engine import StagedReads

        staged = StagedReads()
        buf = np.arange(10, dtype=np.float64).view([("x", np.float64)])
        staged.stage("data/file_0.pbin", ((0, 10),), buf)

        class Rec:
            file_path = "data/file_0.pbin"
            particle_count = 100

        dest = np.empty(5, dtype=buf.dtype)
        assert staged.fetch(Rec(), 5, ((50, 5),), dest) is None
        got = staged.fetch(Rec(), 5, ((2, 5),), dest)
        assert got is not None
        assert np.array_equal(dest["x"], np.arange(2.0, 7.0))


    def test_staged_fetch_gathers_many_runs(self):
        """Runs resolve against the merged runs in one pass and land in
        order — whole records and projected fields alike."""
        from repro.query.engine import StagedReads

        full = np.dtype([("position", "<f8", (3,)), ("a", "<f8"), ("b", "<i4")])
        merged = ((10, 20), (50, 5), (70, 30))
        ids = np.concatenate([np.arange(s, s + c) for s, c in merged])
        buf = np.zeros(len(ids), dtype=full)
        buf["position"] = ids[:, None] + np.array([0.0, 0.25, 0.5])
        buf["a"], buf["b"] = ids / 2, ids * 2
        staged = StagedReads()
        staged.stage("data/file_0.pbin", merged, buf)

        class Rec:
            file_path = "data/file_0.pbin"
            particle_count = 100

        want = ((12, 3), (29, 1), (50, 5), (75, 10))
        expect = np.concatenate([np.arange(s, s + c) for s, c in want])
        projected = np.dtype([("position", "<f8", (3,)), ("b", "<i4")])
        for dtype in (full, projected):
            dest = np.empty(len(expect), dtype=dtype)
            assert staged.fetch(Rec(), 0, want, dest) == len(expect)
            assert np.array_equal(dest["b"], expect * 2)
            assert np.array_equal(dest["position"][:, 1], expect + 0.25)
        # One run reaching past its merged run, a run before every merged
        # run, and a destination of the wrong size all miss.
        assert staged.fetch(Rec(), 0, ((28, 3),), np.empty(3, dtype=full)) is None
        assert staged.fetch(Rec(), 0, ((5, 3),), np.empty(3, dtype=full)) is None
        assert staged.fetch(Rec(), 0, want, np.empty(7, dtype=full)) is None
        assert staged.hits == 2 and staged.misses == 3


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
