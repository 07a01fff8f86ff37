"""Progressive refinement over the LOD layout (paper §4, Fig. 9).

A visualization application first shows a coarse subset, then streams in
further levels in the background.  Because levels are *prefixes* of the same
files, refining from level L to L+1 only reads the bytes between the two
prefix lengths — nothing already loaded is re-read (a columnar file re-reads
at most the one chunk the previous level ended inside).

:class:`ProgressiveReader` tracks, per file, how many particles have been
consumed, and each :meth:`refine` call returns just the new slice (plus the
running total).  Each file's slice is one run of the dataset's one read
(:func:`~repro.query.engine.read_entry_into`), under the dataset's retry
policy and strict or degraded mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lod import lod_prefix_counts, max_level
from repro.core.reader import SpatialReader
from repro.domain.box import Box
from repro.errors import BackendError, FormatError, MetadataChecksumError, QueryError
from repro.format.chunks import Runs
from repro.obs.names import EV_PARTITION_SKIPPED
from repro.particles.batch import ParticleBatch, concatenate
from repro.query.engine import _skip_reason, read_entry_into


@dataclass
class RefinementStep:
    """Outcome of one refinement: the new particles and progress counters."""

    level: int
    new_particles: ParticleBatch
    loaded_particles: int
    total_particles: int

    @property
    def complete(self) -> bool:
        return self.loaded_particles >= self.total_particles

    @property
    def fraction_loaded(self) -> float:
        if self.total_particles == 0:
            return 1.0
        return self.loaded_particles / self.total_particles


class ProgressiveReader:
    """Incremental LOD reads over (a spatial subset of) a dataset."""

    def __init__(
        self,
        reader: SpatialReader,
        nreaders: int = 1,
        box: Box | None = None,
    ):
        self.reader = reader
        self.nreaders = int(nreaders)
        if self.nreaders < 1:
            raise QueryError(f"nreaders must be >= 1, got {nreaders}")
        self.box = box
        if box is None:
            self.records = list(reader.metadata.records)
        else:
            self.records = reader.metadata.files_intersecting(box)
        self._all_counts = [r.particle_count for r in reader.metadata.records]
        self._index = {
            id(r): i for i, r in enumerate(reader.metadata.records)
        }
        self._consumed = [0] * len(self.records)
        self.level = -1  # next refine() loads level 0

    @property
    def total_particles(self) -> int:
        """Particles in the files this progressive read covers."""
        return sum(r.particle_count for r in self.records)

    @property
    def loaded_particles(self) -> int:
        return sum(self._consumed)

    @property
    def final_level(self) -> int:
        """The level index after which nothing more can load."""
        return max_level(
            self.reader.total_particles,
            self.nreaders,
            self.reader.manifest.lod_base,
            self.reader.manifest.lod_scale,
        )

    def done(self) -> bool:
        return self.loaded_particles >= self.total_particles

    def refine(self) -> RefinementStep:
        """Load the next level; returns only the newly read particles."""
        if self.done():
            raise QueryError("refine() called on a fully loaded ProgressiveReader")
        self.level += 1
        prefixes = lod_prefix_counts(
            self._all_counts,
            self.nreaders,
            self.level,
            base=self.reader.manifest.lod_base,
            scale=self.reader.manifest.lod_scale,
        )
        ds = self.reader.dataset
        new_batches: list[np.ndarray] = []
        for i, rec in enumerate(self.records):
            target = prefixes[self._index[id(rec)]]
            already = self._consumed[i]
            fresh = max(0, min(target, rec.particle_count) - already)
            if fresh == 0:
                continue
            self._consumed[i] = already + fresh
            dest = np.empty(fresh, dtype=ds.dtype)
            try:
                # The first slice is an LOD prefix and verifies as one.
                got = read_entry_into(
                    ds.backend, ds.dtype, rec, fresh,
                    None if already == 0 else Runs.of(((already, fresh),)),
                    dest, ds.recorder, ds.strict, ds.retry, ds.actor,
                    ds.chunk_index(rec), ds.manifest.checksums.get(rec.file_path),
                )
            except (BackendError, FormatError) as exc:
                if ds.strict or isinstance(exc, MetadataChecksumError):
                    raise
                ds.recorder.event(
                    EV_PARTITION_SKIPPED,
                    path=rec.file_path,
                    box_id=rec.box_id,
                    reason=_skip_reason(exc),
                    error=str(exc),
                )
                continue
            new_batches.append(dest[:got])
        if new_batches:
            fresh_batch = ParticleBatch(np.concatenate(new_batches))
        else:
            fresh_batch = ParticleBatch(np.empty(0, dtype=self.reader.dtype))
        return RefinementStep(
            level=self.level,
            new_particles=fresh_batch,
            loaded_particles=self.loaded_particles,
            total_particles=self.total_particles,
        )

    def refine_to(self, level: int) -> ParticleBatch:
        """Load every level up to ``level`` and return all new particles."""
        steps: list[ParticleBatch] = []
        while self.level < level and not self.done():
            steps.append(self.refine().new_particles)
        if not steps:
            return ParticleBatch(np.empty(0, dtype=self.reader.dtype))
        return concatenate(steps)
