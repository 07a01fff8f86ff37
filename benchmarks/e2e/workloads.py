"""The seven workloads: what one op is, the op lists, and the code that runs them.

Everything here goes through the library's public entry points on a real
``PosixBackend``.  All workloads are closed loop with one generator thread:
the next op (for ``serve_hotspot``: the next burst of 16) starts only when the
previous one has completed.  The op list of a workload is a pure function of
``--seed``; the driver ships it to the worker as JSON, so the library sees
only boxes and levels.

A round walks the op list in whole passes for its share of ``--seconds`` (at
least one pass), so every round measures the same ops.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import shutil
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np

import repro.dataset
from repro.core import SpatialWriter
from repro.core.compact import compact_dataset
from repro.domain.box import Box
from repro.errors import AdmissionError
from repro.io.executor import executor_for
from repro.io.posix import PosixBackend
from repro.mpi import run_mpi
from repro.mpi.world import World
from repro.obs.names import SPAN_SERVER_BATCH
from repro.obs.recorder import Recorder
from repro.serve.service import QueryService

from . import oracle
from .fixtures import FIXTURES, generate

ROUNDS = 7

#: The three fig14 hotspots (benchmarks/bench_fig14_serving.py).
HOTSPOTS = ((0.15, 0.25, 0.30), (0.60, 0.55, 0.45), (0.40, 0.70, 0.60))
BURST_CLIENTS = 4
BURST_PER_CLIENT = 4
LOD_LEVEL = 10
SELECT_ATTRS = ("density", "volume")
SELECT_WHERE = {"density": (1.0, 1.5)}
WARMUP_OPS = 3
#: full scans per executor mode behind the io.executor.*_speedup metrics.
SCAN_REPS = {"full_scan": 10, "columnar_select": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    #: list units per pass.
    units: int
    #: ops per list unit: a burst is 16 queries, a write cycle 3 commits.
    unit_ops: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_open_box", "R", 30, 1,
            "open_dataset + first plan + run on a new facade each op: what a CLI query "
            "or fresh viz process pays; ~95% is manifest parse and chunk-index build",
        ),
        Workload(
            "warm_box", "R", 300, 1,
            "same box query with every facade memo hot: plan, chunk selection, ranged "
            "reads and decode do the work; the bypass for any open-time optimisation",
        ),
        Workload(
            "lod_prefix", "R", 300, 1,
            "the paper's Fig. 8 read: a level-10 prefix of all 8 files, bound by "
            "per-file fixed cost (handle, header, prefix CRC), not by bytes",
        ),
        Workload(
            "full_scan", "R", 30, 1,
            "the paper's Fig. 7 restart read of all 976 000 particles on thread x2: "
            "bytes-bound (copy, payload CRC, 121 MB allocation); only user of io.executor",
        ),
        Workload(
            "columnar_select", "C", 40, 1,
            "projection + where pushdown on v4 shuffle-zlib files: segment decode "
            "dominates and io moves few bytes, so codec changes show here only",
        ),
        Workload(
            "serve_hotspot", "R", 20, BURST_CLIENTS * BURST_PER_CLIENT,
            "bursts of 16 hotspot queries through QueryService: admission, batching "
            "window and shared staging; warm_box is the same engine without serve",
        ),
        Workload(
            "write_append", "W", 10, 3,
            "write + append + append of 8 ranks (Fig. 5): the layers used the other way "
            "round, so open time bought with commit time shows; appends merge O(chunks)",
        ),
    )
}


# -- op lists ------------------------------------------------------------------


def list_units(w: Workload, smoke: bool) -> int:
    if smoke:  # at most 10 ops per workload
        return max(1, min(w.units, 10 // burst_size(w, smoke)))
    return w.units


def burst_size(w: Workload, smoke: bool) -> int:
    """Ops per list unit; ``--smoke`` halves the clients of a burst."""
    if w.name == "serve_hotspot" and smoke:
        return w.unit_ops // 2
    return w.unit_ops


def _cubes(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[dict]:
    """``n`` cubes inside the unit domain, side log-uniform in ``[lo, hi]``.

    The sides are the ``n`` mid-quantiles of the log-uniform distribution, so
    every seed asks for the same query sizes and leaves only their positions
    and order to chance: op latency grows with side cubed, and a sampled
    size at the median rank alone moved ``op_p50_ms`` by 20% between seeds.
    """
    sides = lo * (hi / lo) ** ((np.arange(n) + 0.5) / n)
    rng.shuffle(sides)
    ops = []
    for side in sides:
        corner = rng.random(3) * (1.0 - side)
        ops.append({"lo": corner.tolist(), "hi": (corner + side).tolist()})
    return ops


def make_ops(name: str, seed: int, smoke: bool) -> list:
    """The workload's op list (list units; a burst is a list of queries)."""
    w = WORKLOADS[name]
    units = list_units(w, smoke)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    if name == "cold_open_box":
        return _cubes(rng, units, 0.04, 0.08)
    if name == "warm_box":
        return _cubes(rng, units, 0.05, 0.4)
    if name == "columnar_select":
        return _cubes(rng, units, 0.15, 0.35)
    if name == "lod_prefix":
        return [{"max_level": LOD_LEVEL}] * units
    if name == "full_scan":
        return [{"max_level": None}] * units
    if name == "write_append":
        cycle = [{"kind": "write", "gen": 0}] + [
            {"kind": "append", "gen": g} for g in (1, 2)
        ]
        return [cycle] * units
    bursts = []
    size = burst_size(w, smoke)
    clients = size // BURST_PER_CLIENT
    for b in range(units):
        burst = []
        for q in range(size):
            center = np.asarray(HOTSPOTS[(b + q) % len(HOTSPOTS)])
            center = center + rng.uniform(-0.04, 0.04, 3)
            half = rng.uniform(0.03, 0.08, 3)
            burst.append(
                {
                    "client": f"client-{q % clients}",
                    "lo": np.clip(center - half, 0.0, 1.0).tolist(),
                    "hi": np.clip(center + half, 0.0, 1.0).tolist(),
                }
            )
        bursts.append(burst)
    return bursts


def flat_ops(ops: list) -> list[dict]:
    return [o for unit in ops for o in (unit if isinstance(unit, list) else [unit])]


def expected_answers(
    name: str, ops: list, ref: oracle.Oracle, prefix_ids: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """The oracle's ``(length, checksum)`` for every op, by flat op index."""
    if name == "write_append":
        appended = ref.appended()
        return [appended[o["gen"]] for o in flat_ops(ops)]
    if name == "full_scan":
        return [ref.full()] * len(ops)
    if name == "lod_prefix":
        return [ref.prefix(prefix_ids, LOD_LEVEL)] * len(ops)
    if name == "columnar_select":
        field = oracle.checksum_field(("position", *SELECT_ATTRS))
        return [ref.box(o["lo"], o["hi"], SELECT_WHERE, field) for o in ops]
    return [ref.box(o["lo"], o["hi"]) for o in flat_ops(ops)]


# -- runners (worker side) -----------------------------------------------------


class Runner:
    """One workload's long-lived state in its worker: opened once, then
    :meth:`run_pass` walks the op list as often as the driver asks."""

    #: executor workers behind one op, and ranks of one collective op.
    workers = 1
    ranks = 1

    def __init__(self, spec: dict):
        self.name: str = spec["workload"]
        self.root: str = spec["root"]
        self.ops: list = spec["ops"]
        self.smoke: bool = spec["smoke"]
        #: set for the traced round only (see :meth:`start_trace`).
        self.tracer = None
        #: the backend counters and per-op facts of the last traced round.
        self.counters = Recorder()
        self.facts: dict[str, float] = {}

    def _time(self, op: int, call):
        """``(ns, value)`` of one timed call; ``value`` is None if it raised."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op
        start = time.perf_counter_ns()
        try:
            value = call()
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            value = None
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.op = None
            tracer.ops.append((op, start, end))
        return end - start, value

    def _report(self, out: dict, index: int, ns: int, data) -> None:
        """Book one op; its answer is checked outside the timed span."""
        out["lat_ns"].append(ns)
        if data is None:
            out["reported"].append([index, None, None])
            return
        out["reported"].append([index, *oracle.result_signature(data)])
        out["payload"] += data.nbytes

    def run_pass(self, units: int | None = None) -> dict:
        out = {"lat_ns": [], "busy_ns": 0, "reported": [], "payload": 0}
        for unit in range(len(self.ops) if units is None else units):
            self.run_unit(unit, out)
        return out

    def warmup(self) -> None:
        unit_ops = len(self.ops[0]) if isinstance(self.ops[0], list) else 1
        self.run_pass(min(len(self.ops), math.ceil(WARMUP_OPS / unit_ops)))

    def run_unit(self, unit: int, out: dict) -> None:
        raise NotImplementedError

    # -- traced round --------------------------------------------------------

    def start_trace(self, tracer) -> None:
        self.tracer = tracer
        self.counters = Recorder()
        self.facts = {}

    def stop_trace(self) -> None:
        self.tracer = None

    def _fact(self, key: str, value: float) -> None:
        self.facts[key] = self.facts.get(key, 0.0) + value

    def _note_plan(self, result, pruned: bool) -> None:
        """Files touched and particles decoded against particles returned
        (an exact box read decodes only the chunk-pruned runs)."""
        plan = result.plan
        self._fact("files", plan.num_files)
        self._fact("decoded", plan.pruned_particles if pruned else plan.total_particles)
        self._fact("returned", len(result))

    def extras(self) -> dict[str, float]:
        """Untraced side measurements this workload owns (per-layer metrics)."""
        return {}

    def close(self) -> None:
        pass


class EngineRunner(Runner):
    """plan -> run on the shared engine; ``cold_open_box`` opens per op."""

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.cold = self.name == "cold_open_box"
        self.executor = None
        if self.name == "full_scan":
            self.workers = 2
            self.executor = executor_for(self.workers, "thread")
        self.boxes = [Box(o["lo"], o["hi"]) if "lo" in o else None for o in self.ops]
        self.plan_kwargs = (
            {"attrs": SELECT_ATTRS, "where": SELECT_WHERE}
            if self.name == "columnar_select"
            else {}
        )
        self.ds = None if self.cold else self._open()

    def _open(self, executor=None):
        # Looked up on the module at call time, where the tracer wraps it.
        target = self.root
        if self.tracer is not None:
            # Same as open_dataset(path), with the counters attached before
            # the manifest is read.
            target = PosixBackend(self.root, create=False)
            target.attach_recorder(self.counters)
        executor = executor or self.executor
        kwargs = {"executor": executor} if executor is not None else {}
        return repro.dataset.open_dataset(target, **kwargs)

    def _query(self, ds, unit: int):
        engine = ds.engine()
        box = self.boxes[unit]
        if box is not None:
            plan = engine.plan_box(box, **self.plan_kwargs)
            return engine.run(plan, exact=True)
        return engine.run(engine.plan_full(max_level=self.ops[unit]["max_level"]))

    def answer(self, unit: int) -> np.ndarray:
        """The result array of one op, untimed (the oracle validates the LOD
        prefix's ids once, at set-up)."""
        return self._query(self.ds, unit).batch.data

    def _open_and_query(self, unit: int):
        ds = self._open()
        return ds, self._query(ds, unit)

    def warmup(self) -> None:
        if self.cold:  # one read of every file: the page cache is warm
            for dirpath, _dirs, files in os.walk(self.root):
                for name in files:
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        while fh.read(1 << 24):
                            pass
        super().warmup()

    def run_unit(self, unit: int, out: dict) -> None:
        if self.cold:
            ns, got = self._time(unit, lambda: self._open_and_query(unit))
            ds, result = got if got is not None else (None, None)
        else:
            ds = self.ds
            ns, result = self._time(unit, lambda: self._query(ds, unit))
        out["busy_ns"] += ns
        self._report(out, unit, ns, None if result is None else result.batch.data)
        if self.tracer is not None and result is not None:
            self._note_plan(result, pruned=self.boxes[unit] is not None)
            if self.cold:
                self._note_obs(ds)
        if self.cold and ds is not None:
            # Each op stands for a fresh process, which inherits no garbage:
            # a facade is a reference cycle (dataset <-> engine), so without
            # this its 40 MB of parsed manifest waits for a later op's GC.
            ds.backend.close()
            del ds, result, got
            gc.collect()

    def _note_obs(self, ds) -> None:
        self._fact("events", len(ds.recorder.events))
        self._fact("spans", len(ds.recorder.spans))
        self.facts["manifest_bytes"] = ds.backend.size(ds.resolution().manifest_path)

    def start_trace(self, tracer) -> None:
        super().start_trace(tracer)
        if not self.cold:
            self.ds.backend.attach_recorder(self.counters)
            self._fact("events", -len(self.ds.recorder.events))
            self._fact("spans", -len(self.ds.recorder.spans))

    def stop_trace(self) -> None:
        if not self.cold:
            self._note_obs(self.ds)
            self.ds.backend.attach_recorder(None)
        super().stop_trace()

    def extras(self) -> dict[str, float]:
        """Full scans of this worker's dataset, serial against 2 workers."""
        if self.name not in SCAN_REPS:
            return {}
        reps = 1 if self.smoke else SCAN_REPS[self.name]
        suffix = "_columnar" if self.name == "columnar_select" else ""
        medians = {}
        for mode, workers in (("serial", 1), ("thread", 2), ("process", 2)):
            executor = executor_for(workers, "process" if mode == "process" else "thread")
            ds = self._open(executor)
            engine = ds.engine()
            times = []
            try:
                for _ in range(reps + 1):  # the first, untimed, starts the pool
                    start = time.perf_counter_ns()
                    result = engine.run(engine.plan_full())
                    times.append(time.perf_counter_ns() - start)
                    if len(result) != ds.total_particles:
                        raise RuntimeError(f"{mode} full scan returned {len(result)}")
            finally:
                executor.shutdown()
                ds.backend.close()
            medians[mode] = float(np.median(times[1:]))
        return {
            f"io.executor.thread2_speedup{suffix}": medians["serial"] / medians["thread"],
            f"io.executor.process2_speedup{suffix}": medians["serial"] / medians["process"],
        }

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
        if self.ds is not None:
            self.ds.backend.close()


class ServeRunner(Runner):
    """Bursts of queries through one ``QueryService``; latency per query is
    submit -> done-callback, a burst ends when its last callback has run."""

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.workers = 2
        self.executor = executor_for(self.workers, "thread")
        self.ds = repro.dataset.open_dataset(self.root, executor=self.executor)
        self.svc = QueryService(self.ds, max_workers=2, batch_window=0.002, max_batch=16)
        self.bursts = [
            [(q["client"], Box(q["lo"], q["hi"])) for q in burst] for burst in self.ops
        ]
        #: when submit returned (ns), for each traced query, in submit order.
        self.submitted: list[int] = []

    def run_unit(self, unit: int, out: dict) -> None:
        burst = self.bursts[unit]
        n = len(burst)
        sub, done = [0] * n, [0] * n
        futures: list = [None] * n
        left = [n]
        lock = threading.Lock()
        finished = threading.Event()

        def on_done(q: int, _future) -> None:
            done[q] = time.perf_counter_ns()
            with lock:
                left[0] -= 1
                if left[0] == 0:
                    finished.set()

        tracer = self.tracer
        if tracer is not None:
            tracer.op = unit
        start = time.perf_counter_ns()
        for q, (client, box) in enumerate(burst):
            sub[q] = time.perf_counter_ns()
            try:
                future = self.svc.submit(box, client=client)
            except AdmissionError:
                self._fact("rejected", 1)
                on_done(q, None)
                continue
            if tracer is not None:
                self.submitted.append(time.perf_counter_ns())
            futures[q] = future
            future.add_done_callback(functools.partial(on_done, q))
        finished.wait(oracle.ROUND_TIMEOUT_S)
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.op = None
            tracer.ops.append((unit, start, end))
        out["busy_ns"] += end - start
        for q, future in enumerate(futures):
            data = None
            if future is not None and future.done():
                try:
                    result = future.result()
                except Exception:  # noqa: BLE001 — a failed query is counted
                    traceback.print_exc(file=sys.stderr)
                else:
                    data = result.batch.data
                    if tracer is not None:
                        self._note_plan(result, pruned=True)
            self._report(out, unit * n + q, done[q] - sub[q], data)

    def start_trace(self, tracer) -> None:
        super().start_trace(tracer)
        self.ds.backend.attach_recorder(self.counters)
        self.submitted = []
        self._stats0 = self.svc.stats()
        self._spans0 = len(self.svc.recorder.spans)
        for rec in (self.ds.recorder, self.svc.recorder):
            self._fact("events", -len(rec.events))
            self._fact("spans", -len(rec.spans))

    def stop_trace(self) -> None:
        for rec in (self.ds.recorder, self.svc.recorder):
            self._fact("events", len(rec.events))
            self._fact("spans", len(rec.spans))
        self.facts["manifest_bytes"] = self.ds.backend.size(
            self.ds.resolution().manifest_path
        )
        stats = self.svc.stats()
        queries = stats["queries"] - self._stats0["queries"]
        batches = stats["batches"] - self._stats0["batches"]
        self.facts["batches"] = batches
        self.facts["batch_width"] = queries / batches if batches else 0.0
        self.facts["ops_saved"] = stats["ops_saved"] - self._stats0["ops_saved"]
        # The service dispatches FIFO, so batches in start order serve the
        # queries in submit order, `width` at a time; the recorder shares
        # perf_counter with this module.
        spans = sorted(
            (s for s in self.svc.recorder.spans[self._spans0:] if s.name == SPAN_SERVER_BATCH),
            key=lambda s: s.start,
        )
        self.facts["batch_ns"] = sum(s.duration for s in spans) * 1e9
        waits, position = 0.0, 0
        for span in spans:
            for returned_ns in self.submitted[position : position + span.args["width"]]:
                waits += max(0.0, span.start * 1e9 - returned_ns)
            position += span.args["width"]
        self.facts["queue_wait_ns"] = waits
        self.ds.backend.attach_recorder(None)
        super().stop_trace()

    def close(self) -> None:
        self.svc.close()
        self.executor.shutdown()
        self.ds.backend.close()


class WriteRunner(Runner):
    """write, append, append of W into an emptied directory, one collective
    ``run_mpi`` per op; atomic write + fsync as shipped."""

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.fx = FIXTURES["W"]
        self.ranks = self.fx.ranks
        self.gens = generate(self.fx, spec["seed"], self.smoke)
        self.decomp = self.fx.decomposition()
        self.writer = SpatialWriter(self.fx.writer_config())
        self.payload = self.fx.particles(self.smoke) * self.gens[0][0].dtype.itemsize
        self.backend: PosixBackend | None = None

    def run_unit(self, unit: int, out: dict) -> None:
        cycle = self.ops[unit]
        for step, op in enumerate(cycle):
            index = unit * len(cycle) + step
            if op["kind"] == "write":  # emptying the directory is not timed
                if self.backend is not None:
                    self.backend.close()
                shutil.rmtree(self.root, ignore_errors=True)
                self.backend = PosixBackend(self.root)
                self.backend.attach_recorder(
                    self.counters if self.tracer is not None else None
                )
            ns, results = self._time(index, functools.partial(self._commit, op))
            out["busy_ns"] += ns
            out["lat_ns"].append(ns)
            out["reported"].append([index, *self._read_back()])
            if results is not None:
                out["payload"] += self.payload
                if self.tracer is not None:
                    self._fact("events", sum(len(r.recorder.events) for r in results))
                    self._fact("spans", sum(len(r.recorder.spans) for r in results))

    def _commit(self, op: dict):
        batches = self.gens[op["gen"]]
        commit = self.writer.write if op["kind"] == "write" else self.writer.append
        world = World(self.ranks) if self.tracer is not None else None
        results = run_mpi(
            self.ranks,
            lambda comm: commit(comm, batches[comm.rank], self.decomp, self.backend),
            world=world,
        )
        if world is not None:
            self._fact("mpi_messages", world.stats.total_messages())
            self._fact("mpi_bytes", world.stats.total_bytes())
        return results

    def _read_back(self) -> tuple[int | None, int | None]:
        """``total_particles`` of a fresh open and the id checksum of a full
        read — what the commit must have made visible."""
        try:
            ds = repro.dataset.open_dataset(self.root)
            try:
                data = ds.engine().run(ds.engine().plan_full()).batch.data
                if len(data) != ds.total_particles:
                    return None, None
                return oracle.result_signature(data)
            finally:
                ds.backend.close()
        except Exception:  # noqa: BLE001 — an unreadable commit is a failed op
            traceback.print_exc(file=sys.stderr)
            return None, None

    def stop_trace(self) -> None:
        ds = repro.dataset.open_dataset(self.root)
        self.facts["manifest_bytes"] = ds.backend.size(ds.resolution().manifest_path)
        ds.backend.close()
        if self.backend is not None:
            self.backend.attach_recorder(None)
        super().stop_trace()

    def extras(self) -> dict[str, float]:
        """One compaction of the last cycle's directory (3 generations)."""
        ds = repro.dataset.open_dataset(self.root)
        start = time.perf_counter_ns()
        compact_dataset(ds)
        elapsed = time.perf_counter_ns() - start
        ds.backend.close()
        return {"core.compact_ms": elapsed / 1e6}

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


def make_runner(spec: dict) -> Runner:
    name = spec["workload"]
    if name == "serve_hotspot":
        return ServeRunner(spec)
    if name == "write_append":
        return WriteRunner(spec)
    return EngineRunner(spec)
