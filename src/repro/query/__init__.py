"""Read-side query engines over the spatial format.

Two layers live here:

* :mod:`repro.query.engine` — the extracted planning/execution core:
  :class:`QueryPlan` (first-class plans: files, coalesced chunk runs,
  projection, pushdown, generation pin), :class:`QueryEngine` (stateless
  plan/run over one :class:`~repro.dataset.Dataset`), and
  :class:`StagedReads` (the shared buffers cross-query batching fills
  and answers queries from — see :mod:`repro.serve`).  Every read-side consumer — the
  :class:`~repro.core.reader.SpatialReader` facade, series reads, the
  CLI, and the serving layer — executes the same plan objects.
* analysis-level helpers, mirroring the paper's §3 motivating tasks:
  :func:`box_query` (spatial selection), :func:`range_query`
  (attribute-range selection over the min/max index), and
  :class:`GridKNN` (k-nearest-neighbour over a uniform grid).

The helpers are imported lazily: they consume the reader facade, which
itself builds on :mod:`repro.query.engine`, and eager imports here would
close that cycle.
"""

from typing import Any

from repro.query.engine import (
    QueryEngine,
    QueryPlan,
    QueryResult,
    ReadPlan,
    ReadReport,
    SkippedPartition,
    StagedReads,
)

__all__ = [
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "ReadPlan",
    "ReadReport",
    "SkippedPartition",
    "StagedReads",
    "box_query",
    "count_files_touched",
    "range_query",
    "GridKNN",
]

_LAZY = {
    "box_query": ("repro.query.boxquery", "box_query"),
    "count_files_touched": ("repro.query.boxquery", "count_files_touched"),
    "range_query": ("repro.query.rangequery", "range_query"),
    "GridKNN": ("repro.query.knn", "GridKNN"),
}


def __getattr__(name: str) -> Any:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_name, attr = target
    return getattr(importlib.import_module(module_name), attr)
