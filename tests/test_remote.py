"""Remote backend, resilience layer, disk cache tier — and the chaos matrix.

Covers the remote object-store stack bottom-up: the simulated transport's
deterministic physics (latency, cost, outage plans, timeouts), the
``RemoteBackend`` contract (readv as one multi-range GET), deadlines and
their propagation through retries and the query engine, the per-path
circuit breaker's state machine, hedged requests, the crash-safe disk
cache, and — the acceptance bar — the chaos matrix: with the store
hard-down mid-burst the breaker opens, every admitted query completes
within its deadline (degraded, or bit-identical from the cache tiers),
and no future is left unresolved after ``close()``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dataset import Dataset
from repro.domain import Box
from repro.errors import (
    BackendError,
    BreakerOpenError,
    ConfigError,
    DeadlineExceededError,
    RemoteUnavailableError,
    RequestTimeoutError,
    TransientBackendError,
)
from repro.io import (
    CircuitBreaker,
    Deadline,
    DiskCacheBackend,
    Hedger,
    OutagePlan,
    ReadRequest,
    RemoteBackend,
    ResilientBackend,
    RetryPolicy,
    SimulatedTransport,
    VirtualBackend,
    build_remote_stack,
    current_deadline,
    deadline_scope,
)
from repro.obs.names import (
    BREAKER_FAST_FAILS,
    BREAKER_TRANSITIONS,
    CACHE_DISK_HIT,
    EV_BREAKER_STATE,
    HEDGE_LAUNCHED,
    HEDGE_WINS,
    REMOTE_BYTES,
    REMOTE_REQUESTS,
)
from repro.obs.recorder import Recorder

from .conftest import write_dataset

BOX = Box([0.0, 0.0, 0.0], [0.6, 0.6, 0.6])
OTHER_BOX = Box([0.3, 0.3, 0.3], [1.0, 1.0, 1.0])


def _store(**kwargs) -> VirtualBackend:
    backend, _decomp, _results = write_dataset(nprocs=4, **kwargs)
    return backend


# -- simulated transport -----------------------------------------------------


class TestSimulatedTransport:
    def test_latency_and_cost_are_deterministic(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * 1000)
        runs = []
        for _ in range(2):
            t = SimulatedTransport(store, rtt_s=0.05, jitter=0.3, seed=9)
            t.get("f")
            t.get_ranges("f", [(0, 100), (500, 100)])
            t.head("f")
            runs.append((t.virtual_time_s, t.stats.cost, t.stats.requests))
        assert runs[0] == runs[1]
        assert runs[0][2] == 3

    def test_virtual_clock_accumulates_without_sleeping(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * 10_000)
        t = SimulatedTransport(store, rtt_s=1.0, jitter=0.0, bandwidth=10_000)
        t.get("f")
        # 1 s RTT + 1 s transfer, accumulated virtually, not slept.
        assert t.virtual_time_s == pytest.approx(2.0)

    def test_cost_model_charges_per_request_and_per_byte(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * (1 << 20))
        t = SimulatedTransport(
            store, cost_per_request=1e-6, cost_per_gb=1.0, jitter=0.0
        )
        t.get("f")
        assert t.stats.cost == pytest.approx(1e-6 + (1 << 20) / (1 << 30))

    def test_outage_window_fails_by_ordinal(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store, outages=OutagePlan(down=((1, 3),)))
        assert t.get("f") == b"data"  # ordinal 0
        for _ in range(2):  # ordinals 1, 2
            with pytest.raises(RemoteUnavailableError):
                t.get("f")
        assert t.get("f") == b"data"  # ordinal 3: healed
        assert t.stats.unavailable == 2

    def test_slow_window_inflates_latency(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        plan = OutagePlan(slow=((0, 1, 10.0),))
        slow = SimulatedTransport(store, rtt_s=0.1, jitter=0.0, outages=plan)
        flat = SimulatedTransport(store, rtt_s=0.1, jitter=0.0)
        slow.get("f")
        flat.get("f")
        assert slow.virtual_time_s == pytest.approx(10 * flat.virtual_time_s)

    def test_fail_and_heal_toggle(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store)
        t.fail()
        with pytest.raises(RemoteUnavailableError):
            t.get("f")
        t.heal()
        assert t.get("f") == b"data"

    def test_down_after_heals_via_heal(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store, outages=OutagePlan(down_after=0))
        with pytest.raises(RemoteUnavailableError):
            t.get("f")
        t.heal()
        assert t.get("f") == b"data"

    def test_per_request_timeout_charges_and_raises(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * 10_000)
        t = SimulatedTransport(store, rtt_s=1.0, jitter=0.0)
        with pytest.raises(RequestTimeoutError):
            t.get("f", timeout=0.5)
        assert t.stats.timeouts == 1
        assert t.virtual_time_s == pytest.approx(0.5)  # the budget was burned

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimulatedTransport(VirtualBackend(), rtt_s=-1)
        with pytest.raises(ConfigError):
            SimulatedTransport(VirtualBackend(), bandwidth=0)


# -- remote backend ----------------------------------------------------------


class TestRemoteBackend:
    def test_full_contract_roundtrip(self):
        store = VirtualBackend()
        remote = RemoteBackend(SimulatedTransport(store))
        remote.write_file("d/a.bin", b"hello world")
        assert remote.exists("d/a.bin")
        assert not remote.exists("d/b.bin")
        assert remote.size("d/a.bin") == 11
        assert remote.read_file("d/a.bin") == b"hello world"
        assert remote.read_range("d/a.bin", 6, 5) == b"world"
        buf = bytearray(5)
        assert remote.readinto("d/a.bin", 0, buf) == 5
        assert bytes(buf) == b"hello"
        assert remote.listdir("d") == ["a.bin"]
        remote.delete("d/a.bin")
        assert not store.exists("d/a.bin")
        with pytest.raises(BackendError):
            remote.size("d/a.bin")
        with pytest.raises(BackendError):
            remote.delete("d/a.bin")
        remote.delete("d/a.bin", missing_ok=True)

    def test_readv_is_one_multirange_request(self):
        store = VirtualBackend()
        store.write_file("f", bytes(range(256)))
        t = SimulatedTransport(store)
        remote = RemoteBackend(t)
        views = [(0, bytearray(4)), (100, bytearray(8)), (250, bytearray(6))]
        request = ReadRequest([(view, (off,), (len(view),)) for off, view in views])
        before = t.stats.requests
        assert remote.readv("f", request) == 18
        assert t.stats.requests == before + 1  # the whole scatter: one GET
        assert bytes(views[0][1]) == bytes(range(4))
        assert bytes(views[1][1]) == bytes(range(100, 108))
        assert bytes(views[2][1]) == bytes(range(250, 256))

    def test_remote_counters_keyed_by_op(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * 64)
        remote = RemoteBackend(SimulatedTransport(store))
        rec = Recorder(rank=-1)
        remote.attach_recorder(rec)
        remote.read_file("f")
        remote.read_range("f", 0, 8)  # a one-range readv: same label
        remote.readv("f", ReadRequest([(bytearray(8), (0, 8), (4, 4))]))
        assert rec.value(REMOTE_REQUESTS, key=("get",)) == 1
        assert rec.value(REMOTE_REQUESTS, key=("get_ranges",)) == 2
        assert rec.total(REMOTE_REQUESTS) == 3
        assert rec.value(REMOTE_BYTES, key=("get",)) == 64
        assert rec.value(REMOTE_BYTES, key=("get_ranges",)) == 8 + 8

    def test_deadline_narrows_request_timeout(self):
        store = VirtualBackend()
        store.write_file("f", b"x" * 100)
        t = SimulatedTransport(store, rtt_s=1.0, jitter=0.0)
        remote = RemoteBackend(t)  # no default timeout
        clock = [0.0]
        deadline = Deadline.after(0.25, clock=lambda: clock[0])
        with deadline_scope(deadline):
            with pytest.raises(RequestTimeoutError):
                remote.read_file("f")  # 1 s simulated > 0.25 s remaining


# -- deadlines ---------------------------------------------------------------


class TestDeadline:
    def test_scope_is_ambient_and_restored(self):
        assert current_deadline() is None
        deadline = Deadline.after(10.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_check_raises_once_expired(self):
        clock = [0.0]
        deadline = Deadline.after(1.0, clock=lambda: clock[0])
        deadline.check("op")
        assert deadline.remaining() == pytest.approx(1.0)
        clock[0] = 1.5
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check("op")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigError):
            Deadline.after(0.0)

    def test_engine_sheds_expired_deadline_as_degraded_skip(self):
        backend = _store()
        ds = Dataset.open(backend, strict=False)
        engine = ds.engine()
        plan = engine.plan_box(BOX)
        clock = [0.0]
        deadline = Deadline.after(0.5, clock=lambda: clock[0])
        clock[0] = 1.0  # expire before execution
        result = engine.run(plan, True, deadline=deadline)
        assert len(result.batch) == 0
        assert result.report.skipped
        assert {s.reason for s in result.report.skipped} == {"deadline"}

    def test_engine_strict_raises_on_expired_deadline(self):
        backend = _store()
        engine = Dataset.open(backend, strict=True).engine()
        plan = engine.plan_box(BOX)
        clock = [0.0]
        deadline = Deadline.after(0.5, clock=lambda: clock[0])
        clock[0] = 1.0
        with pytest.raises(DeadlineExceededError):
            engine.run(plan, True, deadline=deadline)

    def test_retry_stops_before_overrunning_deadline(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise TransientBackendError("always")

        policy = RetryPolicy(max_attempts=10, backoff_base=1.0,
                             backoff_factor=1.0, jitter=0.0,
                             sleep=lambda _s: None)
        clock = [0.0]
        deadline = Deadline.after(2.5, clock=lambda: clock[0])
        with deadline_scope(deadline):
            with pytest.raises(TransientBackendError):
                policy.call(flaky)
        # 1 s + 1 s requested sleep fits the 2.5 s budget; the third 1 s
        # pause would overrun it, so attempts 1..3 ran and the 4th never did.
        assert calls["n"] == 3


class TestRetryPolicyComposition:
    def test_max_elapsed_caps_requested_sleep(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise TransientBackendError("always")

        policy = RetryPolicy(
            max_attempts=10, backoff_base=1.0, backoff_factor=1.0,
            jitter=0.0, max_elapsed=2.5, sleep=lambda _s: None,
        )
        with pytest.raises(TransientBackendError):
            policy.call(flaky)
        assert calls["n"] == 3  # sleeps 1+1 = 2 <= 2.5; third sleep would hit 3

    def test_decorrelated_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(decorrelated=True, backoff_base=0.01, seed=5)
        d0 = policy.delay(0, None)
        d1 = policy.delay(1, d0)
        assert policy.delay(0, None) == d0
        assert policy.delay(1, d0) == d1
        assert 0.01 <= d0 <= 0.03
        assert 0.01 <= d1 <= 3 * d0

    def test_default_call_sites_unchanged(self):
        """No decorrelation, no cap: the historical delay sequence holds."""
        old = RetryPolicy(seed=3)
        assert RetryPolicy(seed=3, decorrelated=False).delay(2) == old.delay(2)
        assert old.max_elapsed is None

    def test_max_elapsed_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_elapsed=-1.0)


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def _tripped(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure("p")
        assert breaker.state("p") == "closed"
        breaker.record_failure("p")
        assert breaker.state("p") == "open"
        return breaker

    def test_opens_after_threshold_and_fails_fast(self):
        clock = [0.0]
        breaker = self._tripped(clock)
        with pytest.raises(BreakerOpenError):
            breaker.allow("p")
        assert breaker.fast_fails == 1
        breaker.allow("other")  # per-path isolation

    def test_half_open_probe_then_close(self):
        clock = [0.0]
        breaker = self._tripped(clock)
        clock[0] = 6.0
        assert breaker.state("p") == "half-open"
        breaker.allow("p")  # the single probe goes through
        with pytest.raises(BreakerOpenError):
            breaker.allow("p")  # a second concurrent probe does not
        breaker.record_success("p")
        assert breaker.state("p") == "closed"
        breaker.allow("p")

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = self._tripped(clock)
        clock[0] = 6.0
        breaker.allow("p")
        breaker.record_failure("p")
        assert breaker.state("p") == "open"
        with pytest.raises(BreakerOpenError):
            breaker.allow("p")

    def test_transitions_counted_and_evented(self):
        rec = Recorder(rank=-1)
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=lambda: clock[0]
        )
        breaker.recorder = rec
        breaker.record_failure("p")
        clock[0] = 6.0
        breaker.allow("p")
        breaker.record_success("p")
        assert rec.value(BREAKER_TRANSITIONS, key=("open",)) == 1
        assert rec.value(BREAKER_TRANSITIONS, key=("half-open",)) == 1
        assert rec.value(BREAKER_TRANSITIONS, key=("closed",)) == 1
        states = [e.args["to"] for e in rec.events_named(EV_BREAKER_STATE)]
        assert states == ["open", "half-open", "closed"]


class TestResilientBackend:
    def test_outage_trips_breaker_then_fails_fast_without_remote_traffic(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store)
        t.fail()
        rec = Recorder(rank=-1)
        res = ResilientBackend(
            RemoteBackend(t), breaker=CircuitBreaker(failure_threshold=2)
        )
        res.attach_recorder(rec)
        for _ in range(2):
            with pytest.raises(RemoteUnavailableError):
                res.read_file("f")
        requests_when_open = t.stats.requests
        with pytest.raises(BreakerOpenError):
            res.read_file("f")
        assert t.stats.requests == requests_when_open  # fail-fast: no traffic
        assert rec.value(BREAKER_FAST_FAILS, key=("f",)) == 1
        res.close()

    def test_breaker_probe_recovers_after_heal(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        clock = [0.0]
        t = SimulatedTransport(store)
        t.fail()
        res = ResilientBackend(
            RemoteBackend(t),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_after=5.0, clock=lambda: clock[0]
            ),
        )
        with pytest.raises(RemoteUnavailableError):
            res.read_file("f")
        t.heal()
        clock[0] = 6.0  # cooldown over: half-open probe succeeds
        assert res.read_file("f") == b"data"
        assert res.breaker.state("f") == "closed"
        res.close()

    def test_permanent_errors_do_not_trip_the_breaker(self):
        res = ResilientBackend(
            RemoteBackend(SimulatedTransport(VirtualBackend())),
            breaker=CircuitBreaker(failure_threshold=1),
        )
        with pytest.raises(BackendError):
            res.read_file("missing")
        assert res.breaker.state("missing") == "closed"
        res.close()

    def test_retry_runs_inside_the_breaker(self):
        """One logical op = one breaker verdict, however many attempts."""
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store, outages=OutagePlan(down=((0, 1),)))
        res = ResilientBackend(
            RemoteBackend(t),
            retry=RetryPolicy.immediate(3),
            breaker=CircuitBreaker(failure_threshold=1),
        )
        assert res.read_file("f") == b"data"  # retry healed the blip
        assert res.breaker.state("f") == "closed"
        res.close()

    def test_hedge_second_request_wins_over_stalled_primary(self):
        release = threading.Event()
        calls = {"n": 0}
        lock = threading.Lock()

        class StallFirstBackend(VirtualBackend):
            def read_file(self, path, actor=-1):
                with lock:
                    calls["n"] += 1
                    mine = calls["n"]
                if mine == 1:
                    release.wait(5.0)  # primary stalls until the test ends
                return super().read_file(path, actor=actor)

        base = StallFirstBackend()
        base.write_file("f", b"payload")
        rec = Recorder(rank=-1)
        res = ResilientBackend(
            base, hedger=Hedger(min_wait_s=0.02, min_samples=99)
        )
        res.attach_recorder(rec)
        try:
            assert res.read_file("f") == b"payload"
            assert rec.value(HEDGE_LAUNCHED) == 1
            assert rec.value(HEDGE_WINS) == 1
        finally:
            release.set()
            res.close()

    def test_hedged_readv_fills_caller_views_once(self):
        base = VirtualBackend()
        base.write_file("f", bytes(range(100)))
        res = ResilientBackend(
            base, hedger=Hedger(min_wait_s=5.0, min_samples=99)
        )
        a, b = bytearray(4), bytearray(4)
        assert res.readv("f", ReadRequest([(a, (0,), (4,)), (b, (96,), (4,))])) == 8
        assert bytes(a) == bytes(range(4))
        assert bytes(b) == bytes(range(96, 100))
        res.close()

    def test_hedger_trigger_tracks_latency_percentile(self):
        hedger = Hedger(percentile=0.5, min_wait_s=0.01, min_samples=4)
        assert hedger.trigger_delay() == 0.01  # floor until samples arrive
        for latency in (0.2, 0.4, 0.6, 0.8):
            hedger.observe(latency)
        assert hedger.trigger_delay() == pytest.approx(0.6)

    def test_shed_before_any_remote_traffic_when_deadline_expired(self):
        store = VirtualBackend()
        store.write_file("f", b"data")
        t = SimulatedTransport(store)
        res = ResilientBackend(RemoteBackend(t))
        clock = [0.0]
        deadline = Deadline.after(1.0, clock=lambda: clock[0])
        clock[0] = 2.0
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError):
                res.read_file("f")
        assert t.stats.requests == 0
        assert res.shed == 1
        res.close()


# -- disk cache tier ---------------------------------------------------------


class TestDiskCacheBackend:
    def test_hits_avoid_the_base_backend(self, tmp_path):
        store = VirtualBackend()
        store.write_file("f", b"x" * 256)
        t = SimulatedTransport(store)
        cache = DiskCacheBackend(RemoteBackend(t), tmp_path, max_bytes=1 << 20)
        rec = Recorder(rank=-1)
        cache.attach_recorder(rec)
        assert cache.read_range("f", 0, 16) == b"x" * 16
        before = t.stats.requests
        assert cache.read_range("f", 0, 16) == b"x" * 16
        assert t.stats.requests == before
        assert rec.value(CACHE_DISK_HIT, key=("f",)) == 1

    def test_warm_entries_survive_a_new_process(self, tmp_path):
        store = VirtualBackend()
        store.write_file("f", b"payload-bytes")
        t = SimulatedTransport(store)
        cache = DiskCacheBackend(RemoteBackend(t), tmp_path, max_bytes=1 << 20)
        assert cache.read_file("f") == b"payload-bytes"
        # "Restart": a fresh instance over the same directory, store down.
        t.fail()
        again = DiskCacheBackend(RemoteBackend(t), tmp_path, max_bytes=1 << 20)
        assert again.recovered == 1
        assert again.read_file("f") == b"payload-bytes"
        assert again.hits == 1

    def test_torn_and_foreign_files_are_discarded_on_recovery(self, tmp_path):
        store = VirtualBackend()
        store.write_file("f", b"abcdef")
        cache = DiskCacheBackend(
            RemoteBackend(SimulatedTransport(store)), tmp_path, max_bytes=1 << 20
        )
        cache.read_file("f")
        # Simulate a crash mid-write plus corruption of a committed entry.
        (tmp_path / ".half.entry.tmp-123-0").write_bytes(b"torn")
        entry = next(tmp_path.glob("*.entry"))
        entry.write_bytes(entry.read_bytes()[:-3])  # truncate the payload
        again = DiskCacheBackend(
            RemoteBackend(SimulatedTransport(store)), tmp_path, max_bytes=1 << 20
        )
        assert again.recovered == 0
        assert again.discarded == 2
        assert list(tmp_path.glob("*.tmp-*")) == []
        assert again.read_file("f") == b"abcdef"  # clean re-fetch

    def test_write_invalidates_path_entries_on_disk(self, tmp_path):
        store = VirtualBackend()
        store.write_file("f", b"old-old-old")
        cache = DiskCacheBackend(
            RemoteBackend(SimulatedTransport(store)), tmp_path, max_bytes=1 << 20
        )
        assert cache.read_file("f") == b"old-old-old"
        cache.write_file("f", b"new-new-new")
        assert cache.read_file("f") == b"new-new-new"
        assert cache.cached_bytes == len(b"new-new-new")

    def test_lru_eviction_bounded_by_bytes(self, tmp_path):
        store = VirtualBackend()
        for i in range(4):
            store.write_file(f"f{i}", bytes([i]) * 100)
        cache = DiskCacheBackend(
            RemoteBackend(SimulatedTransport(store)), tmp_path, max_bytes=250
        )
        for i in range(4):
            cache.read_file(f"f{i}")
        assert cache.evictions == 2
        assert cache.cached_bytes == 200
        assert len(list(tmp_path.glob("*.entry"))) == 2

    def test_store_after_invalidate_epoch_guard(self, tmp_path):
        """A write that lands mid-read keeps the stale result out of disk."""
        store = VirtualBackend()
        store.write_file("f", b"before")
        cache = DiskCacheBackend(
            RemoteBackend(SimulatedTransport(store)), tmp_path, max_bytes=1 << 20
        )
        epoch = cache._epoch("f")
        stale = cache.base.read_file("f")
        cache.write_file("f", b"after!")  # invalidates: bumps the epoch
        cache._store(("file", "f"), "f", stale, epoch)  # in-flight store
        assert cache.read_file("f") == b"after!"


# -- the chaos matrix (acceptance) ------------------------------------------


def _serial_expected(store, box, **query):
    engine = Dataset.open(store).engine()
    return engine.run(engine.plan_box(box, **query), True).batch.data


class TestChaosMatrix:
    """Store hard-down mid-burst: breaker opens, every admitted query
    completes within its deadline (degraded or cache-served, bit-identical
    where cached), and close() strands nothing."""

    def _serving_stack(self, tmp_path, store, **transport_kw):
        transport = SimulatedTransport(store, seed=3, **transport_kw)
        recorder = Recorder(rank=-1)
        stack = build_remote_stack(
            transport,
            ram_cache_bytes=32 << 20,
            disk_cache_dir=str(tmp_path / "dcache"),
            retry=RetryPolicy.immediate(2),
            breaker=CircuitBreaker(failure_threshold=2, reset_after=60.0),
        )
        stack.attach_recorder(recorder)
        ds = Dataset.open(stack, strict=False)
        return transport, stack, ds, recorder

    def test_outage_mid_burst_degrades_and_recovers(self, tmp_path):
        from repro.serve import QueryService

        store = _store()
        expected = {
            BOX: _serial_expected(store, BOX),
            OTHER_BOX: _serial_expected(store, OTHER_BOX),
        }
        transport, stack, ds, recorder = self._serving_stack(tmp_path, store)

        with QueryService(ds, max_workers=2, batch_window=0.0) as service:
            # Warm phase: both cache tiers absorb the working set.
            warm = service.query(BOX, deadline_s=30.0)
            np.testing.assert_array_equal(warm.batch.data, expected[BOX])

            # Outage mid-burst.
            transport.fail()
            boxes = [BOX if i % 2 == 0 else OTHER_BOX for i in range(6)]
            futures = [
                service.submit(box, client=f"c{i}", deadline_s=30.0)
                for i, box in enumerate(boxes)
            ]
            # Every admitted query resolves: complete (cache-served,
            # bit-identical to the healthy serial read) or degraded with
            # every miss accounted for under a resilience reason.
            for box, future in zip(boxes, futures):
                result = future.result(timeout=60.0)
                if result.report.skipped:
                    assert {s.reason for s in result.report.skipped} <= {
                        "transient-exhausted", "unavailable", "deadline",
                    }
                else:
                    assert (
                        result.batch.data.tobytes() == expected[box].tobytes()
                    )

            # Cache-served data stays bit-identical during the outage.
            again = service.query(BOX, deadline_s=30.0)
            assert again.batch.data.tobytes() == expected[BOX].tobytes()
            assert not again.report.skipped

            # Cold reads trip the breaker, then fail fast with no traffic.
            path = "data/file_0.pbin"
            for offset in range(3):
                with pytest.raises(
                    (RemoteUnavailableError, BreakerOpenError)
                ):
                    stack.read_range(path, offset, 1)
            requests_when_open = transport.stats.requests
            with pytest.raises(BreakerOpenError):
                stack.read_range(path, 3, 1)
            assert transport.stats.requests == requests_when_open

        assert recorder.value(BREAKER_TRANSITIONS, key=("open",)) >= 1
        assert recorder.total(BREAKER_FAST_FAILS) >= 1

    def test_warm_reads_do_zero_remote_requests_during_outage(self, tmp_path):
        store = _store()
        transport, _stack, ds, _rec = self._serving_stack(tmp_path, store)
        engine = ds.engine()
        plan = engine.plan_box(BOX)
        healthy = engine.run(plan, True)
        transport.fail()
        requests = transport.stats.requests
        again = engine.run(engine.plan_box(BOX), True)
        assert again.batch.data.tobytes() == healthy.batch.data.tobytes()
        assert transport.stats.requests == requests

    def test_disk_tier_serves_after_ram_loss(self, tmp_path):
        """RAM gone (new stack), store down: the disk tier still answers."""
        store = _store()
        expected = _serial_expected(store, BOX)
        transport, _s1, ds1, _r1 = self._serving_stack(tmp_path, store)
        first = ds1.engine()
        result = first.run(first.plan_box(BOX), True)
        np.testing.assert_array_equal(result.batch.data, expected)

        transport2 = SimulatedTransport(store, seed=3)
        transport2.fail()
        stack2 = build_remote_stack(
            transport2,
            ram_cache_bytes=32 << 20,
            disk_cache_dir=str(tmp_path / "dcache"),
            retry=RetryPolicy.immediate(2),
            breaker=CircuitBreaker(failure_threshold=2),
        )
        ds2 = Dataset.open(stack2, strict=False)
        engine2 = ds2.engine()
        again = engine2.run(engine2.plan_box(BOX), True)
        assert again.batch.data.tobytes() == expected.tobytes()
        assert not again.report.skipped

    def test_close_drain_timeout_strands_no_futures(self, tmp_path):
        from repro.serve import QueryService

        store = _store()
        transport, _stack, ds, _rec = self._serving_stack(tmp_path, store)
        transport.fail()
        service = QueryService(ds, max_workers=1, batch_window=0.0,
                               autostart=False)
        futures = [
            service.submit(BOX, client=f"c{i}", deadline_s=30.0)
            for i in range(4)
        ]
        # Never started: close() must fail the queue, not hang or strand.
        service.close(drain_timeout=0.5)
        assert all(f.done() for f in futures)
        stats = service.stats()
        assert stats["cancelled"] == 4
        assert stats["pending"] == 0

    def test_latency_spike_plan_still_completes_within_deadline(self, tmp_path):
        store = _store()
        expected = _serial_expected(store, BOX)
        transport, _stack, ds, _rec = self._serving_stack(
            tmp_path,
            store,
            rtt_s=0.001,
            outages=OutagePlan(slow=((10, 20, 100.0),)),
        )
        engine = ds.engine()
        result = engine.run(engine.plan_box(BOX), True)
        assert result.batch.data.tobytes() == expected.tobytes()
