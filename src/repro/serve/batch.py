"""Cross-query batched planning: one coalesced read pass serves many plans.

The paper's core idea is spatial aggregation — merge many small scattered
requests into few large well-placed I/O operations.  PR 5 applied it
*within* one query (chunk runs coalesced per file); this module lifts it
*across* queries: the :class:`~repro.serve.service.QueryService` collects
the :class:`~repro.query.engine.QueryPlan`\\ s that are in flight during a
small batching window, and :func:`stage_plans` merges their per-file
demand into one coalesced scatter-gather read per file.  Execution then
*answers* each query's staged entries from the shared decoded buffers
(:meth:`repro.query.engine.StagedReads.select`) on the calling thread,
instead of re-reading the backend — N overlapping queries cost one
backend pass per shared file instead of N, and an entry the stage serves
never becomes an executor task.

Bit-identical by construction
-----------------------------

Parity with serial execution is not checked after the fact; it falls out
of how the stage is built and read:

* the staged read uses the **same decode path** a direct read would
  (``read_columnar_runs_into`` for v4, ``read_data_file_into`` /
  ``read_particle_runs_into`` for rows), under the engine's own retry
  policy, with ``strict=True`` — the bytes landing in the stage are the
  bytes a serial read would have produced, or the file is not staged;
* each query run is provably contained in exactly one merged run (a
  merged run is a connected component of the union of intervals, and any
  single query run is itself one interval), so an entry's runs lie in
  one contiguous span of the stage, in file order;
* the answer is **the same predicate over the query's own runs**: the
  span is masked by the entry's runs — rows other queries brought in are
  dropped whatever the chunk index claims about them — and by the plan's
  closed box and ``where`` ranges, the one predicate function the direct
  path filters with too;
* anything not stageable — LOD-prefix entries (their checksum
  verification belongs to the direct path), files that fail the staged
  read, plans whose fields are missing — simply **misses** and falls back
  to its own direct read, i.e. exactly serial behaviour.

Demand rules: a file is staged only when two or more distinct queries
want it (staging a single-reader file would just add a copy); the merged
dtype is the union of the demanding queries' projected fields (row files
always decode full records, as their direct reads do).
"""

from __future__ import annotations

import numpy as np

from repro.format.chunks import Runs
from repro.format.datafile import (
    read_columnar_runs_into,
    read_data_file_into,
    read_particle_runs_into,
)
from repro.format.metadata import MetadataRecord
from repro.obs.recorder import Recorder
from repro.query.engine import QueryEngine, QueryPlan, QueryResult, StagedReads

__all__ = ["stage_plans", "execute_batch", "merge_runs"]


def merge_runs(runs) -> Runs:
    """Coalesce ``(start, count)`` intervals: union, overlapping/adjacent
    intervals merged, ascending.  The union of chunk-aligned intervals is
    chunk-aligned (every component boundary is a boundary of some input
    run), so merged runs stay valid for columnar reads."""
    runs = Runs.of(runs)
    live = np.flatnonzero(runs.counts > 0)
    order = live[np.argsort(runs.starts[live], kind="stable")]
    starts = runs.starts[order]
    if not len(starts):
        return Runs(starts, starts)
    # Sorted by start, a run opens a new component iff it begins past
    # everything seen so far; the component then reaches the running max.
    reach = np.maximum.accumulate(starts + runs.counts[order])
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = starts[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    merged = starts[first]
    return Runs(merged, reach[np.append(first[1:] - 1, len(starts) - 1)] - merged)


def _union_dtype(
    full_dtype: np.dtype, field_sets: list[tuple[str, ...]]
) -> np.dtype:
    """The union of the demanding queries' projected fields, in file order."""
    keep = set()
    for names in field_sets:
        keep.update(names)
    if keep >= set(full_dtype.names or ()):
        return full_dtype
    fields: list[tuple] = []
    for name in full_dtype.names or ():
        if name not in keep:
            continue
        sub = full_dtype.fields[name][0]  # type: ignore[index]
        if sub.shape:
            fields.append((name, sub.base, sub.shape))
        else:
            fields.append((name, sub.base))
    return np.dtype(fields)


def _demand_for(plan: QueryPlan, exact: bool) -> list[tuple[MetadataRecord, Runs]]:
    """The per-file particle runs of :meth:`QueryPlan.demand` a stage can
    serve: empty-run entries read nothing, and LOD-prefix entries (a head
    read shorter than the file) are never served from a stage."""
    demand = []
    for rec, count, runs in plan.demand(exact):
        if runs is None:
            if count < rec.particle_count:
                continue  # LOD prefix: direct path only
            runs = Runs.of(((0, count),))
        if len(runs):
            demand.append((rec, runs))
    return demand


def stage_plans(
    engine: QueryEngine,
    items: list[tuple[QueryPlan, bool]],
    recorder: Recorder | None = None,
) -> StagedReads:
    """Pre-read every file that two or more of ``items`` will touch.

    ``items`` are ``(plan, exact)`` pairs exactly as they will be passed
    to :meth:`QueryEngine.run`.  Returns the :class:`StagedReads` to pass
    to each of those runs; files whose staged read fails (after the
    engine's own retries) are silently left unstaged, so every query
    falls back to its direct read and overall behaviour — including
    degraded-mode skipping — is exactly serial.

    Staged-read retry events land on ``recorder`` (default: the engine's
    recorder), not on any one query's — a transient fault absorbed once
    for the whole batch is accounted to the batch.
    """
    recorder = recorder if recorder is not None else engine.recorder
    full_dtype = engine.dtype
    # path -> (record, [runs per demanding query], [projected field names]).
    demand: dict[
        str, tuple[MetadataRecord, list[Runs], list[tuple[str, ...]]]
    ] = {}
    for plan, exact in items:
        names = tuple(plan.result_dtype(full_dtype).names or ())
        for rec, want in _demand_for(plan, exact):
            entry = demand.get(rec.file_path)
            if entry is None:
                demand[rec.file_path] = (rec, [want], [names])
            else:
                entry[1].append(want)
                entry[2].append(names)
    staged = StagedReads()
    for path, (rec, wants, field_sets) in demand.items():
        if len(wants) < 2:
            continue  # nobody to share with: direct reads are already optimal
        merged = merge_runs(
            Runs(
                np.concatenate([want.starts for want in wants]),
                np.concatenate([want.counts for want in wants]),
            )
        )
        index = engine.dataset.chunk_index(rec)
        columnar = index is not None and getattr(index, "codec", None) is not None
        try:
            if columnar:
                buf = np.empty(
                    merged.total, dtype=_union_dtype(full_dtype, field_sets)
                )
                discard: list[tuple[int, str, str]] = []
                engine.retry.call(
                    read_columnar_runs_into,
                    engine.backend,
                    path,
                    full_dtype,
                    index,
                    merged,
                    buf,
                    actor=engine.actor,
                    strict=True,
                    skipped=discard,
                    recorder=recorder,
                )
            else:
                # Row files decode whole records whatever the projection,
                # exactly as their direct reads do.
                buf = np.empty(merged.total, dtype=full_dtype)
                if merged == ((0, rec.particle_count),):
                    # Whole file: use the footer-verifying read, the same
                    # primitive a direct whole-file read runs.
                    engine.retry.call(
                        read_data_file_into,
                        engine.backend,
                        path,
                        full_dtype,
                        buf,
                        actor=engine.actor,
                        recorder=recorder,
                    )
                else:
                    engine.retry.call(
                        read_particle_runs_into,
                        engine.backend,
                        path,
                        full_dtype,
                        merged,
                        buf,
                        actor=engine.actor,
                        recorder=recorder,
                    )
        except Exception:  # noqa: BLE001 — any failure degrades to direct reads
            continue
        staged.stage(path, merged, buf)
    return staged


def execute_batch(
    engine: QueryEngine,
    items: list[tuple[QueryPlan, bool]],
    recorder: Recorder | None = None,
) -> tuple[list[QueryResult], StagedReads]:
    """Stage, then run every plan against the shared stage, serially.

    The deterministic single-threaded core of batched serving — the
    service wraps this in admission control and worker threads, and the
    parity tests call it directly.  Returns the per-query results in
    ``items`` order plus the stage (for ops accounting).
    """
    staged = stage_plans(engine, items, recorder=recorder)
    results = [
        engine.run(plan, exact, recorder=recorder, staged=staged)
        for plan, exact in items
    ]
    return results, staged
