"""The IoExecutor contract: ordering, fail-fast, child recorders, bounds.

Serial and threaded executors must be interchangeable: same outcomes in
submission order, same captured errors, and per-task child recorders that
merge back into an executor-independent stream.
"""

import os
import threading
import time

import pytest

from repro.errors import BackendError
from repro.io.executor import (
    ProcessExecutor,
    ProcessTask,
    SerialExecutor,
    TaskOutcome,
    ThreadedExecutor,
    executor_for,
)
from repro.obs.recorder import Recorder

EXECUTORS = [
    SerialExecutor(),
    ThreadedExecutor(max_workers=2),
    ThreadedExecutor(max_workers=4, max_inflight=4),
    # Plain (non-ProcessTask) batches: the whole contract must hold on the
    # process executor's internal thread fallback.
    ProcessExecutor(max_workers=2),
]


def _ids(ex):
    return repr(ex)


@pytest.mark.parametrize("executor", EXECUTORS, ids=_ids)
class TestContract:
    def test_results_in_submission_order(self, executor):
        tasks = [(lambda _r, i=i: i * i) for i in range(20)]
        outcomes = executor.run(tasks, Recorder())
        assert [o.index for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [i * i for i in range(20)]
        assert all(o.ok for o in outcomes)

    def test_empty_task_list(self, executor):
        assert executor.run([], Recorder()) == []

    def test_errors_are_captured_not_raised(self, executor):
        def boom(_r):
            raise BackendError("injected")

        outcomes = executor.run([lambda _r: 1, boom, lambda _r: 3], Recorder())
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, BackendError)
        assert outcomes[1].value is None

    def test_tasks_get_child_recorders(self, executor):
        parent = Recorder(rank=3)
        seen = []

        def task(recorder):
            seen.append(recorder)
            recorder.add("touched", 1)
            recorder.event("task-ran")
            return None

        outcomes = executor.run([task] * 4, parent)
        # Children are fresh recorders sharing the parent's rank — never
        # the parent itself.
        assert all(r is not parent for r in seen)
        assert all(r.rank == parent.rank for r in seen)
        # Nothing lands on the parent until the caller merges.
        assert parent.total("touched") == 0
        assert parent.events == []
        for outcome in outcomes:
            parent.merge(outcome.recorder)
        assert parent.total("touched") == 4
        assert len(parent.events_named("task-ran")) == 4

    def test_fail_fast_earliest_failing_index_ran(self, executor):
        """Tasks before the first failure always ran; the tail may be cut."""

        def boom(_r):
            raise BackendError("stop here")

        tasks = [(lambda _r, i=i: i) for i in range(5)]
        tasks[2] = boom
        outcomes = executor.run(tasks, Recorder(), fail_fast=True)
        assert len(outcomes) == 5
        assert outcomes[0].ok and outcomes[1].ok
        assert outcomes[2].ran and outcomes[2].error is not None
        # Unstarted tail entries are marked ran=False with no recorder.
        for outcome in outcomes:
            if not outcome.ran:
                assert outcome.recorder is None
                assert outcome.error is None


class TestSerialFailFast:
    def test_stops_immediately_after_failure(self):
        ran = []

        def make(i):
            def task(_r):
                ran.append(i)
                if i == 1:
                    raise BackendError("boom")
                return i

            return task

        outcomes = SerialExecutor().run(
            [make(i) for i in range(5)], Recorder(), fail_fast=True
        )
        assert ran == [0, 1]
        assert [o.ran for o in outcomes] == [True, True, False, False, False]


class TestThreaded:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ThreadedExecutor(max_workers=4, max_inflight=2)

    def test_default_inflight_window(self):
        assert ThreadedExecutor(max_workers=3).max_inflight == 6

    def test_bounded_inflight_submission(self):
        """Never more than max_inflight tasks running/queued at once."""
        executor = ThreadedExecutor(max_workers=2, max_inflight=3)
        lock = threading.Lock()
        live = 0
        peak = 0

        def task(_r):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            time.sleep(0.001)
            with lock:
                live -= 1

        outcomes = executor.run([task] * 32, Recorder())
        assert len(outcomes) == 32
        assert all(o.ok for o in outcomes)
        assert peak <= 3

    def test_actually_concurrent(self):
        """Two blocking tasks overlap on a two-worker pool."""
        barrier = threading.Barrier(2, timeout=5)

        def task(_r):
            barrier.wait()  # deadlocks unless both run at once
            return True

        outcomes = ThreadedExecutor(max_workers=2).run([task, task], Recorder())
        assert [o.value for o in outcomes] == [True, True]

    def test_fail_fast_stops_submitting_new_tasks(self):
        executor = ThreadedExecutor(max_workers=1, max_inflight=1)
        ran = []

        def make(i):
            def task(_r):
                ran.append(i)
                if i == 0:
                    raise BackendError("boom")
                return i

            return task

        outcomes = executor.run(
            [make(i) for i in range(6)], Recorder(), fail_fast=True
        )
        # One worker, window of one: task 0 fails before 1 is submitted.
        assert ran == [0]
        assert outcomes[0].ran and outcomes[0].error is not None
        assert all(not o.ran for o in outcomes[1:])


class TestThreadedCallerRuns:
    """The caller runs the last task of each call itself, in the window
    slot a pool hand-off would have taken."""

    def test_one_task_runs_on_caller_without_a_pool(self):
        executor = ThreadedExecutor(max_workers=2)
        outcomes = executor.run([lambda _r: threading.get_ident()], Recorder())
        assert outcomes[0].value == threading.get_ident()
        assert executor._pool is None

    def test_two_tasks_first_on_pool_last_on_caller(self):
        executor = ThreadedExecutor(max_workers=2)

        def name(_r):
            return threading.current_thread().name

        try:
            outcomes = executor.run([name, name], Recorder())
            first, last = (o.value for o in outcomes)
            assert first.startswith("repro-io")
            assert last == threading.current_thread().name
        finally:
            executor.shutdown()

    def test_fail_fast_when_inline_task_raises(self):
        """The inline task fails while an earlier task is still running on
        the pool: the call waits for it and returns both outcomes."""
        executor = ThreadedExecutor(max_workers=1, max_inflight=2)
        failed = threading.Event()

        def first(_r):
            assert failed.wait(timeout=10)
            return "first"

        def boom(_r):
            failed.set()
            raise BackendError("inline")

        try:
            outcomes = executor.run([first, boom], Recorder(), fail_fast=True)
        finally:
            executor.shutdown()
        assert outcomes[0].ok and outcomes[0].value == "first"
        assert outcomes[1].ran and isinstance(outcomes[1].error, BackendError)
        # A failing one-task call captures its error the same way.
        (alone,) = ThreadedExecutor(max_workers=1).run(
            [boom], Recorder(), fail_fast=True
        )
        assert alone.ran and isinstance(alone.error, BackendError)

    def test_nested_run_from_inline_task_completes(self):
        """The inline task's nested run() submits to a one-worker pool that
        may still be busy with the outer call's first task."""
        executor = ThreadedExecutor(max_workers=1)

        def outer(_r):
            inner = executor.run(
                [(lambda _r, i=i: i * 10) for i in range(3)], Recorder()
            )
            return [o.value for o in inner]

        try:
            outcomes = executor.run([outer, outer], Recorder())
        finally:
            executor.shutdown()
        assert [o.value for o in outcomes] == [[0, 10, 20], [0, 10, 20]]

    def test_mixed_plan_matches_serial(self):
        """Outcomes and the merged child-recorder stream of a mixed
        ok/failing plan equal SerialExecutor's, whoever ran each task."""

        def make(i):
            def task(recorder):
                recorder.event("task-ran", i=i)
                recorder.add("touched", i)
                if i % 3 == 1:
                    raise BackendError(f"task {i}")
                return i * i

            return task

        def observe(executor):
            parent = Recorder(rank=2)
            outcomes = executor.run([make(i) for i in range(7)], parent)
            for outcome in outcomes:
                parent.merge(outcome.recorder)
            return (
                [(o.index, o.ran, o.value, repr(o.error)) for o in outcomes],
                [(e.name, dict(e.args)) for e in parent.events],
                parent.total("touched"),
            )

        threaded = ThreadedExecutor(max_workers=2, max_inflight=3)
        try:
            assert observe(threaded) == observe(SerialExecutor())
        finally:
            threaded.shutdown()


class TestThreadedShared:
    """One ThreadedExecutor shared by concurrent submitters (the serving
    layer's shape: every service worker runs queries through one dataset
    executor).  Each run() call must stay isolated: its own outcome slots,
    its own inflight window, and a poisoned sibling must not wedge it."""

    def test_concurrent_runs_are_isolated(self):
        executor = ThreadedExecutor(max_workers=4)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def submitter(tid: int) -> None:
            try:
                tasks = [(lambda _r, i=i, t=tid: (t, i)) for i in range(16)]
                outcomes = executor.run(tasks, Recorder())
                results[tid] = [o.value for o in outcomes]
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        # No cross-talk: every submitter got exactly its own values, ordered.
        for tid in range(6):
            assert results[tid] == [(tid, i) for i in range(16)]

    def test_poisoned_run_does_not_wedge_siblings(self):
        """One fail-fast run hitting an error must not cancel, corrupt, or
        block a concurrently submitted run on the same executor."""
        executor = ThreadedExecutor(max_workers=4)
        gate = threading.Event()

        def boom(_r):
            gate.wait(timeout=10)  # fail while the sibling is mid-flight
            raise BackendError("poison")

        sibling_done = []

        def slow_ok(_r, i):
            if i == 0:
                gate.set()
            time.sleep(0.002)
            sibling_done.append(i)
            return i

        poisoned_out: list = []
        sibling_out: list = []
        t1 = threading.Thread(
            target=lambda: poisoned_out.extend(
                executor.run([boom] * 4, Recorder(), fail_fast=True)
            )
        )
        t2 = threading.Thread(
            target=lambda: sibling_out.extend(
                executor.run(
                    [(lambda _r, i=i: slow_ok(_r, i)) for i in range(24)],
                    Recorder(),
                )
            )
        )
        t1.start()
        t2.start()
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert not t1.is_alive() and not t2.is_alive()
        # The poisoned run captured its own failure...
        assert any(o.ran and isinstance(o.error, BackendError) for o in poisoned_out)
        # ...and the sibling ran to completion, every task, correct values.
        assert len(sibling_done) == 24
        assert [o.value for o in sibling_out] == list(range(24))
        assert all(o.ok for o in sibling_out)

    def test_nested_run_from_worker_executes_inline(self):
        """A task that itself calls run() (engine inside a service worker
        inside an engine) must not deadlock waiting on its own pool."""
        executor = ThreadedExecutor(max_workers=1)  # one worker: would self-deadlock

        def outer(_r):
            inner = executor.run([(lambda _r, i=i: i * 10) for i in range(3)], Recorder())
            return [o.value for o in inner]

        outcomes = executor.run([outer], Recorder())
        assert outcomes[0].ok
        assert outcomes[0].value == [0, 10, 20]

    def test_shutdown_then_reuse_recreates_pool(self):
        executor = ThreadedExecutor(max_workers=2)
        assert [o.value for o in executor.run([lambda _r: 1], Recorder())] == [1]
        executor.shutdown()
        executor.shutdown()  # idempotent
        assert [o.value for o in executor.run([lambda _r: 2], Recorder())] == [2]
        executor.shutdown()


# -- process-pool shipping ----------------------------------------------------
#
# ProcessTask work functions must be module-level (picklable by reference).


def _square(payload, recorder):
    recorder.add("touched", 1)
    recorder.event("task-ran", n=payload)
    return payload * payload


def _boom(payload, recorder):
    raise BackendError(f"injected for {payload}")


def _worker_pid(payload, recorder):
    return os.getpid()


def _die(payload, recorder):
    os._exit(1)  # simulate a worker killed mid-task


def _ptask(fn, payload):
    """A ProcessTask whose local form computes the same thing inline."""
    return ProcessTask(
        lambda recorder, p=payload: fn(p, recorder), fn, payload
    )


class TestProcess:
    """ProcessTask shipping: ordering, recorders, degradation ladders."""

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=4, max_inflight=2)

    def test_ships_to_worker_processes_in_order(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            tasks = [_ptask(_square, i) for i in range(12)]
            outcomes = executor.run(tasks, Recorder())
            assert [o.index for o in outcomes] == list(range(12))
            assert [o.value for o in outcomes] == [i * i for i in range(12)]
            assert all(o.ok for o in outcomes)
            # Shipped for real: the pool spun up, the fallback never did.
            assert executor._pool is not None
            assert executor._fallback._pool is None
            # Proof of other-process execution, observed parent-side.
            pids = executor.run(
                [_ptask(_worker_pid, i) for i in range(4)], Recorder()
            )
            assert all(o.value != os.getpid() for o in pids)
        finally:
            executor.shutdown()

    def test_child_recorder_snapshots_merge(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            parent = Recorder(rank=5)
            outcomes = executor.run(
                [_ptask(_square, i) for i in range(4)], parent
            )
            assert parent.total("touched") == 0  # nothing until the merge
            for outcome in outcomes:
                assert outcome.recorder.rank == parent.rank
                parent.merge(outcome.recorder)
            assert parent.total("touched") == 4
            # Events survive the snapshot round-trip in submission order.
            assert [e.args["n"] for e in parent.events_named("task-ran")] == [
                0, 1, 2, 3,
            ]
        finally:
            executor.shutdown()

    def test_worker_errors_captured_not_raised(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            tasks = [_ptask(_square, 1), _ptask(_boom, 2), _ptask(_square, 3)]
            outcomes = executor.run(tasks, Recorder())
            assert [o.ok for o in outcomes] == [True, False, True]
            assert isinstance(outcomes[1].error, BackendError)
            assert "injected for 2" in str(outcomes[1].error)
        finally:
            executor.shutdown()

    def test_mixed_batch_runs_on_thread_fallback(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            tasks = [_ptask(_square, 1), lambda _r: 7]
            outcomes = executor.run(tasks, Recorder())
            assert [o.value for o in outcomes] == [1, 7]
            assert executor._pool is None  # never shipped
            assert executor._fallback._pool is not None
        finally:
            executor.shutdown()

    def test_unpicklable_payload_degrades_to_local_form(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            bad = ProcessTask(
                lambda _r: "local-ran", _square, payload=lambda: None
            )
            outcomes = executor.run(
                [_ptask(_square, 2), bad, _ptask(_square, 3)], Recorder()
            )
            assert [o.value for o in outcomes] == [4, "local-ran", 9]
            assert all(o.ok for o in outcomes)
        finally:
            executor.shutdown()

    def test_broken_pool_fails_tasks_and_recovers(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            outcomes = executor.run([_ptask(_die, 0)], Recorder())
            assert not outcomes[0].ok
            assert outcomes[0].ran
            # The broken pool was discarded; the next run gets a fresh one.
            again = executor.run([_ptask(_square, 6)], Recorder())
            assert [o.value for o in again] == [36]
        finally:
            executor.shutdown()

    def test_local_form_equivalence_on_serial(self):
        """Serial/threaded executors run a ProcessTask's local form."""
        tasks = [_ptask(_square, i) for i in range(4)]
        outcomes = SerialExecutor().run(tasks, Recorder())
        assert [o.value for o in outcomes] == [0, 1, 4, 9]

    def test_shutdown_then_reuse_recreates_pool(self):
        executor = ProcessExecutor(max_workers=2)
        assert [
            o.value for o in executor.run([_ptask(_square, 3)], Recorder())
        ] == [9]
        executor.shutdown()
        executor.shutdown()  # idempotent
        assert [
            o.value for o in executor.run([_ptask(_square, 4)], Recorder())
        ] == [16]
        executor.shutdown()


class TestExecutorFor:
    def test_serial_at_or_below_one(self):
        assert isinstance(executor_for(1), SerialExecutor)
        assert isinstance(executor_for(0), SerialExecutor)
        assert isinstance(executor_for(1, mode="process"), SerialExecutor)

    def test_threaded_above_one(self):
        ex = executor_for(8)
        assert isinstance(ex, ThreadedExecutor)
        assert ex.max_workers == 8

    def test_process_mode(self):
        ex = executor_for(4, mode="process")
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            executor_for(4, mode="fiber")


class TestTaskOutcome:
    def test_ok_semantics(self):
        assert TaskOutcome(0, value=1).ok
        assert not TaskOutcome(0, error=ValueError("x")).ok
        assert not TaskOutcome(0, ran=False).ok
