"""Metadata-driven parallel reads (paper §4) — the reader facade.

Planning and execution live in :mod:`repro.query.engine`; this module
keeps the historic :class:`SpatialReader` surface as a thin adapter over
the dataset's shared :class:`~repro.query.engine.QueryEngine`.  Reads are
planned, then executed:

* **planning** intersects the query box with the spatial metadata table
  and computes, per matching file, how many particles to read (all of
  them, or an LOD prefix for multi-resolution access).  The result is a
  first-class :class:`~repro.query.engine.QueryPlan` (re-exported here
  under its historic name ``ReadPlan``) — tests, the performance models,
  and the serving layer's cross-query batch planner consume it directly.
* **execution** issues the ranged reads against the backend and
  (optionally) filters the decoded particles exactly to the query box.

The three read styles of the paper's evaluation are all here:

* ``read_box`` — spatial query using the metadata (the fast path),
* ``read_box_without_metadata`` — the degraded mode of Fig. 7's first case:
  every process must read *every* file and cherry-pick, because nothing says
  where particles live,
* ``read_assigned`` — full-dataset strong-scaling reads, where ``nreaders``
  processes split the file list (Fig. 7's per-process file counts).

Fault tolerance, instrumentation, and concurrency semantics are the
engine's (see :mod:`repro.query.engine`): per-file reads go through the
dataset's :class:`~repro.io.retry.RetryPolicy`, a reader constructed with
``strict=False`` degrades instead of raising, and
:attr:`SpatialReader.last_report` (a
:class:`~repro.query.engine.ReadReport`) records exactly which partitions
were read, which were skipped and why, and how many retries were spent —
derived from the recorder's event stream, never maintained as parallel
state.  Unlike the stateless engine, the reader keeps ``last_report`` as
mutable convenience state, which is why a multi-tenant service uses the
engine directly and readers stay single-caller.
"""

from __future__ import annotations

import numpy as np

from repro.dataset import Dataset
from repro.domain.box import Box
from repro.format.metadata import MetadataRecord
from repro.io.backend import FileBackend
from repro.io.retry import RetryPolicy
from repro.obs.recorder import Recorder
from repro.particles.batch import ParticleBatch
from repro.query.engine import (
    QueryPlan,
    ReadPlan,
    ReadReport,
    SkippedPartition,
)

__all__ = [
    "ReadPlan",
    "QueryPlan",
    "ReadReport",
    "SkippedPartition",
    "SpatialReader",
]


class SpatialReader:
    """Reader over one dataset (a :class:`~repro.dataset.Dataset` facade).

    Accepts either an open/openable ``Dataset`` — whose policy bundle
    (strict, retry, recorder, executor) the reader adopts wholesale — or,
    for convenience, a bare backend plus the policy keywords, which are
    forwarded to a new facade.

    ``strict=True`` (default): any unrecoverable per-file error aborts the
    read, exactly as before.  ``strict=False``: the read degrades — bad
    partitions are skipped, the partial result is returned, and
    :attr:`last_report` says what is missing.  Transient backend faults are
    retried under ``retry`` in both modes.  Per-file plan entries execute
    on the dataset's :class:`~repro.io.executor.IoExecutor`.

    All planning and execution delegates to the dataset's shared
    :class:`~repro.query.engine.QueryEngine`; the reader adds only the
    convenience state (``last_report``) and the historic method names.
    """

    def __init__(
        self,
        source: Dataset | FileBackend,
        actor: int = -1,
        strict: bool = True,
        retry: RetryPolicy | None = None,
        recorder: Recorder | None = None,
        executor=None,
    ):
        if isinstance(source, Dataset):
            dataset = source
        else:
            dataset = Dataset(
                source,
                actor=actor,
                strict=strict,
                retry=retry,
                recorder=recorder,
                executor=executor,
            )
        #: the facade owning the open/validate lifecycle and policy bundle.
        self.dataset = dataset.load()
        #: the shared stateless engine every consumer of this facade uses.
        self.engine = dataset.engine()
        self.backend = dataset.backend
        self.actor = dataset.actor
        self.strict = dataset.strict
        self.retry = dataset.retry
        self.executor = dataset.executor
        #: instrumentation record of everything this reader does.
        self.recorder = dataset.recorder
        #: report of the most recent plan execution (None before any read).
        self.last_report: ReadReport | None = None
        self.manifest = dataset.manifest
        self.metadata = dataset.metadata

    # -- basic facts -----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.manifest.dtype

    @property
    def total_particles(self) -> int:
        return self.metadata.total_particles

    @property
    def num_files(self) -> int:
        return len(self.metadata)

    def domain(self) -> Box:
        return self.metadata.domain()

    # -- planning (delegated to the engine) ------------------------------------

    def _prefix_for(
        self, records: list[MetadataRecord], max_level: int | None, nreaders: int
    ) -> list[int]:
        return self.engine._prefix_for(records, max_level, nreaders)

    def _normalize_projection(
        self,
        attrs: tuple[str, ...] | list[str] | None,
        where: dict[str, tuple[float, float]] | None,
    ) -> tuple[tuple[str, ...] | None, dict[str, tuple[float, float]]]:
        return self.engine._normalize_projection(attrs, where)

    def plan_box_read(
        self,
        box: Box,
        max_level: int | None = None,
        nreaders: int = 1,
        attrs: tuple[str, ...] | list[str] | None = None,
        where: dict[str, tuple[float, float]] | None = None,
    ) -> ReadPlan:
        """Plan a spatial query; see :meth:`repro.query.engine.QueryEngine.plan_box`."""
        return self.engine.plan_box(
            box, max_level=max_level, nreaders=nreaders, attrs=attrs, where=where
        )

    def plan_full_read(
        self, max_level: int | None = None, nreaders: int = 1
    ) -> ReadPlan:
        return self.engine.plan_full(max_level=max_level, nreaders=nreaders)

    def assign_files(self, nreaders: int, reader_rank: int) -> list[MetadataRecord]:
        """Contiguous file assignment for an ``nreaders``-way parallel read."""
        return self.engine.assign_files(nreaders, reader_rank)

    # -- execution --------------------------------------------------------------

    def execute(self, plan: ReadPlan, exact: bool = False) -> ParticleBatch:
        """Run a plan.  ``exact=True`` filters particles to the plan's box.

        Delegates to :meth:`repro.query.engine.QueryEngine.run` with this
        reader's policy bundle, then stows the delivery ledger in
        :attr:`last_report`.  On a strict-mode raise the report is still
        derived from whatever events the aborted execution recorded, so a
        caller catching the error can see how far the read got.
        """
        mark = self.recorder.event_mark()
        try:
            result = self.engine.run(
                plan, exact, recorder=self.recorder, strict=self.strict
            )
        except Exception:
            self.last_report = ReadReport.from_events(
                self.recorder.events_since(mark)
            )
            raise
        self.last_report = result.report
        return result.batch

    # -- the three read styles ------------------------------------------------------

    def read_box(
        self,
        box: Box,
        max_level: int | None = None,
        nreaders: int = 1,
        exact: bool = True,
    ) -> ParticleBatch:
        """Spatial query via the metadata table (the paper's fast path)."""
        return self.execute(self.plan_box_read(box, max_level, nreaders), exact=exact)

    def read_full(self, max_level: int | None = None, nreaders: int = 1) -> ParticleBatch:
        return self.execute(self.plan_full_read(max_level, nreaders))

    def read_assigned(
        self,
        nreaders: int,
        reader_rank: int,
        max_level: int | None = None,
    ) -> ParticleBatch:
        """This reader's share of a full parallel read (Fig. 7 style)."""
        return self.execute(
            self.engine.plan_assigned(nreaders, reader_rank, max_level=max_level)
        )

    def read_box_without_metadata(self, box: Box) -> ParticleBatch:
        """The degraded path: no spatial table, so read *everything* and filter.

        This is Fig. 7's "without spatial metadata" case — per-process I/O
        volume does not shrink as readers are added, which is why it cannot
        strong-scale.
        """
        plan = ReadPlan(
            [(rec, rec.particle_count) for rec in self.metadata.records],
            box=box,
        )
        return self.execute(plan, exact=True)
