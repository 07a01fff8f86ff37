"""The traced pass: spans around the calls into each layer, taken from here.

``src/`` carries no spans for plan, CRC, decode or filter yet (ROADMAP item 1's
next step), so this module wraps each layer's *public* callables from the
outside for one extra round per workload.  A wrapped call records
``(id, name, start, end, parent, op, thread)`` into an in-memory list that is
written out as ``trace.jsonl`` when the round ends.  Self time is a span's
duration minus its child spans, which by construction run on the same thread.

Names bound with ``from ... import`` are wrapped where they are looked up
(``repro.query.engine.read_entry_into``, not only ``repro.format.datafile``).
End-to-end numbers are never taken with these wrappers installed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (owner, attribute, the per-layer time metric the span's time feeds).
# Owner is "module" or "module:Class".
WRAPS = [
    ("repro.dataset", "open_dataset", "dataset.open_ms"),
    ("repro.dataset.facade:Dataset", "load", "dataset.open_ms"),
    ("repro.dataset.facade:Dataset", "chunk_index", "dataset.chunk_index_ms"),
    ("repro.dataset.facade", "resolve_generation", "format.resolve_generation_ms"),
    ("repro.core.writer", "resolve_generation", "format.resolve_generation_ms"),
    ("repro.format.manifest:Manifest", "read", "format.manifest_read_ms"),
    ("repro.format.metadata:SpatialMetadata", "read", "format.metadata_read_ms"),
    ("repro.core.writer", "load_generation", "format.load_generation_ms"),
    ("repro.format.chunks:FileChunkIndex", "from_entry", "format.chunk_index_build_ms"),
    ("repro.format.chunks:FileChunkIndex", "select_runs", "format.chunk_select_ms"),
    ("repro.query.engine", "read_particle_runs_into", "format.read_into_self_ms"),
    ("repro.query.engine", "read_data_file_into", "format.read_into_self_ms"),
    ("repro.query.engine", "read_data_prefix_into", "format.read_into_self_ms"),
    ("repro.query.engine", "read_columnar_runs_into", "format.read_into_self_ms"),
    ("repro.serve.batch", "read_particle_runs_into", "format.read_into_self_ms"),
    ("repro.serve.batch", "read_data_file_into", "format.read_into_self_ms"),
    ("repro.serve.batch", "read_columnar_runs_into", "format.read_into_self_ms"),
    ("repro.format.datafile", "build_data_blob", "format.encode_ms"),
    ("repro.core.writer", "encode_columnar_payload", "format.encode_ms"),
    ("repro.core.writer", "compute_file_checksums", "format.encode_ms"),
    ("repro.core.writer", "build_chunk_entry", "format.encode_ms"),
    # The writer serialises with to_json/to_bytes and hands the bytes to
    # backend.write_file itself; Manifest.write is what other callers use.
    ("repro.format.manifest:Manifest", "write", "format.manifest_write_ms"),
    ("repro.format.manifest:Manifest", "to_json", "format.manifest_write_ms"),
    ("repro.format.metadata:SpatialMetadata", "write", "format.manifest_write_ms"),
    ("repro.format.metadata:SpatialMetadata", "to_bytes", "format.manifest_write_ms"),
    ("repro.query.engine:QueryEngine", "plan_box", "query.plan_ms"),
    ("repro.query.engine:QueryEngine", "plan_full", "query.plan_ms"),
    ("repro.query.engine:QueryEngine", "run", "query.run_self_ms"),
    ("repro.query.engine", "read_entry_into", "query.read_entry_self_ms"),
    ("repro.query.engine", "verify_prefix", "query.verify_prefix_ms"),
    ("repro.io.posix:PosixBackend", "readv", "io.read_ms"),
    ("repro.io.posix:PosixBackend", "readinto", "io.read_ms"),
    ("repro.io.posix:PosixBackend", "read_range", "io.read_ms"),
    ("repro.io.posix:PosixBackend", "read_file", "io.read_ms"),
    ("repro.io.posix:PosixBackend", "write_file", "io.write_ms"),
    ("repro.io.executor:SerialExecutor", "run", "io.executor_run_ms"),
    ("repro.io.executor:ThreadedExecutor", "run", "io.executor_run_ms"),
    ("repro.serve.service:QueryService", "submit", "serve.submit_ms"),
    ("repro.serve.service", "stage_plans", "serve.stage_ms"),
    ("repro.core.writer:SpatialWriter", "write", "core.write_rank_ms"),
    ("repro.core.writer:SpatialWriter", "append", "core.write_rank_ms"),
    ("repro.core.writer", "exchange_particles", "core.exchange_ms"),
    ("repro.core.writer", "order_for_heuristic", "core.lod_order_ms"),
    ("repro.mpi.comm:SimComm", "allgather", "mpi.collective_wait_ms"),
    ("repro.mpi.comm:SimComm", "alltoall", "mpi.collective_wait_ms"),
    ("repro.mpi.comm:SimComm", "barrier", "mpi.collective_wait_ms"),
    ("repro.mpi.comm:SimComm", "bcast", "mpi.collective_wait_ms"),
    ("repro.mpi.comm:SimComm", "gather", "mpi.collective_wait_ms"),
]

#: The codec's ``decode`` is wrapped on the class of the dataset's own codec.
CODEC_DECODE = "format.codec_decode_ms"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Wraps callables, collects spans while an op is in flight."""

    def __init__(self) -> None:
        #: (id, name, metric, start_ns, end_ns, parent id or -1, op, thread id)
        self.spans: list[tuple] = []
        #: (op, start_ns, end_ns) of every traced op, as the worker timed it.
        self.ops: list[tuple[int, int, int]] = []
        #: The op in flight.  There is one closed-loop generator thread, so at
        #: most one op (for ``serve_hotspot``: one burst) is in flight and
        #: every thread working for it can read its id from here.
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _traced(self, fn, name: str, metric: str):
        spans, local, ids = self.spans, self._local, self._ids
        now, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:  # warm-up, verification, between ops
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((sid, name, metric, start, end, parent, op, ident()))

        return wrapper

    def wrap(self, owner, attr: str, name: str, metric: str) -> None:
        own = vars(owner).get(attr)
        raw = own if own is not None else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._traced(raw.__func__, name, metric))
        else:
            new = self._traced(raw, name, metric)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, new)

    def install(self, codec_name: str | None = None) -> None:
        for owner, attr, metric in WRAPS:
            self.wrap(_resolve(owner), attr, f"{owner.replace(':', '.')}.{attr}", metric)
        if codec_name:
            from repro.format.codecs import get_codec

            cls = type(get_codec(codec_name))
            self.wrap(cls, "decode", f"repro.format.codecs.{cls.__name__}.decode", CODEC_DECODE)

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is None:
                delattr(owner, attr)  # was inherited
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per metric: summed self ns, summed duration ns and call count."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, _name, _metric, start, end, parent, _op, _tid in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_ns": 0, "dur_ns": 0, "calls": 0}
        )
        for sid, _name, metric, start, end, _parent, _op, _tid in self.spans:
            cell = out[metric]
            cell["self_ns"] += (end - start) - child_ns[sid]
            cell["dur_ns"] += end - start
            cell["calls"] += 1
        return out

    def per_thread_max_ns(self, metric: str) -> float:
        """Sum over ops of the largest per-thread total duration of ``metric``
        (``max over ranks``: the rank that bounds the collective op)."""
        cells: dict[tuple[int, int], int] = defaultdict(int)
        for _sid, _name, m, start, end, _parent, op, tid in self.spans:
            if m == metric:
                cells[(op, tid)] += end - start
        worst: dict[int, int] = defaultdict(int)
        for (op, _tid), ns in cells.items():
            worst[op] = max(worst[op], ns)
        return float(sum(worst.values()))

    def coverage(self) -> float:
        """Share of op wall time during which a traced call was open on any
        thread.  For a single-threaded op this is the sum of all layer self
        times over the op's wall time."""
        windows = {op: (start, end) for op, start, end in self.ops}
        wall = sum(end - start for start, end in windows.values())
        roots: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _sid, _name, _metric, start, end, parent, op, _tid in self.spans:
            if parent < 0 and op in windows:
                lo, hi = windows[op]
                roots[op].append((max(start, lo), min(end, hi)))
        covered = 0
        for intervals in roots.values():
            reach = 0
            for start, end in sorted(intervals):
                if end > max(start, reach):
                    covered += end - max(start, reach)
                    reach = end
        return covered / wall if wall else 0.0

    def dump(self, path: str, workload: str) -> None:
        """Append this round's spans to ``trace.jsonl``."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, _metric, start, end, parent, op, tid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op_id": op,
                            "thread": tid,
                        }
                    )
                    + "\n"
                )
