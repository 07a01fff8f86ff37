"""Property-based test of the *whole* pipeline.

For random rank counts, partition factors, LOD parameters and per-rank
particle loads: write with the full SPMD pipeline, read back, and check the
conservation contract — every particle stored exactly once, every file's
contents inside its advertised bounds, LOD prefix sizes exact.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.reader import read_whole_file
from repro.core import SpatialReader, SpatialWriter, WriterConfig
from repro.core.lod import cumulative_level_count
from repro.domain import Box, PatchDecomposition
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles import ParticleBatch
from repro.particles.dtype import MINIMAL_DTYPE

DOMAIN = Box([0, 0, 0], [1, 1, 1])


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    nprocs=st.sampled_from([2, 4, 6, 8, 12]),
    factor=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    lod_base=st.sampled_from([4, 32, 128]),
    lod_scale=st.sampled_from([2, 3]),
    heuristic=st.sampled_from(["random", "stratified"]),
    adaptive=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_pipeline_conservation(
    nprocs, factor, lod_base, lod_scale, heuristic, adaptive, seed
):
    decomp = PatchDecomposition.for_nprocs(DOMAIN, nprocs)
    rng = np.random.default_rng(seed)
    # Random per-rank loads, some ranks possibly empty.
    loads = rng.integers(0, 120, size=nprocs)
    if adaptive and loads.sum() == 0:
        loads[0] = 5  # adaptive grids need at least one particle
    batches = []
    offset = 0
    for r in range(nprocs):
        patch = decomp.patch_of_rank(r)
        arr = np.zeros(int(loads[r]), dtype=MINIMAL_DTYPE)
        arr["position"] = patch.lo + rng.random((int(loads[r]), 3)) * patch.extent
        arr["id"] = np.arange(offset, offset + int(loads[r]), dtype=np.float64)
        offset += int(loads[r])
        batches.append(ParticleBatch(arr))
    total = int(loads.sum())
    if total == 0 and adaptive:
        return

    cfg = WriterConfig(
        partition_factor=factor,
        lod_base=lod_base,
        lod_scale=lod_scale,
        lod_heuristic=heuristic,
        lod_seed=seed % 1000,
        adaptive=adaptive,
    )
    backend = VirtualBackend()
    writer = SpatialWriter(cfg)
    run_mpi(nprocs, lambda c: writer.write(c, batches[c.rank], decomp, backend))

    reader = SpatialReader(backend)
    # Conservation: exactly the written ids, once each.
    assert reader.total_particles == total
    everything = reader.read_full()
    assert sorted(everything.data["id"].tolist()) == list(range(total))

    # Every file's particles lie inside its advertised bounds.
    for rec in reader.metadata:
        if rec.particle_count:
            batch = read_whole_file(backend, rec.file_path, reader.dtype)
            assert rec.bounds.contains_points(
                batch.positions, closed=True
            ).all()

    # LOD prefix sizes follow the formula for a couple of levels.
    for level in (0, 2):
        got = len(reader.read_full(max_level=level, nreaders=2))
        expected = min(total, cumulative_level_count(2, level, lod_base, lod_scale))
        assert got == expected
