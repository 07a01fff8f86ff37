"""Attribute-range queries using the per-file min/max index.

The paper plans (§3.5) to extend the metadata with per-region scalar
extrema "to narrow down range-queries on these non-spatial attributes
(e.g., density, pressure or temperature)".  Our metadata format carries
that index when the writer is configured with ``attr_index=(...)``;
``range_query`` plans through the query engine with a ``where`` range, so
files *and* chunks whose [min, max] cannot overlap the requested interval
are skipped before any I/O, then filters exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.reader import SpatialReader
from repro.domain.box import Box
from repro.errors import QueryError
from repro.particles.batch import ParticleBatch

#: Holds every finite position: a range query has no spatial constraint.
_EVERYWHERE = Box(np.full(3, -np.finfo(np.float64).max), np.full(3, np.finfo(np.float64).max))


def range_query(
    reader: SpatialReader,
    attr: str,
    lo: float,
    hi: float,
    use_index: bool = True,
) -> ParticleBatch:
    """Particles with ``lo <= attr <= hi``.

    ``use_index=False`` forces the unpruned full scan — the ablation
    baseline for measuring what the min/max index buys.
    """
    if hi < lo:
        raise QueryError(f"range query needs lo <= hi, got [{lo}, {hi}]")
    where = {attr: (lo, hi)}
    if use_index:
        return reader.execute(reader.plan_box_read(_EVERYWHERE, where=where), exact=True)
    _attrs, where = reader._normalize_projection(None, where)
    return reader.execute(replace(reader.plan_full_read(), where=where))


def files_pruned_by_index(reader: SpatialReader, attr: str, lo: float, hi: float) -> int:
    """How many candidate files the index eliminated for this range."""
    if attr not in reader.metadata.attr_names:
        raise QueryError(
            f"attribute {attr!r} is not indexed (index covers "
            f"{reader.metadata.attr_names})"
        )
    candidates = sum(1 for r in reader.metadata.records if r.particle_count > 0)
    kept = len(reader.metadata.files_in_attr_range(attr, lo, hi))
    return candidates - kept
