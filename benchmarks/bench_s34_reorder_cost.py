"""§3.4 — cost of the LOD reordering itself.

The paper: "for 32K particles it requires 33 msec on Mira and 80 msec on
Theta ... our reordering is not currently parallelized."  We time the same
operation — shuffling 32,768 particles (124-byte records) — on this host,
and next to it what the writer's step 6 actually pays per aggregator: the
LOD order, the regrouping of each level into spatially tight chunks
(``chunk_cluster_order``) and one gather of the rows, at the default
``WriterConfig``.
"""

import timeit
from statistics import median

import pytest

from repro.core import WriterConfig
from repro.core.lod import chunk_cluster_order, random_lod_order, stratified_lod_order
from repro.domain import Box
from repro.format.datafile import prefix_checksum_boundaries
from repro.particles import uniform_particles
from repro.utils import Table

PAPER_MIRA_MS = 33.0
PAPER_THETA_MS = 80.0


@pytest.fixture(scope="module")
def batch_32k():
    return uniform_particles(Box([0, 0, 0], [1, 1, 1]), 32_768, seed=0)


def writer_step6(batch):
    """Step 6 of ``SpatialWriter._write`` for one aggregator's batch."""
    cfg = WriterConfig()
    order = random_lod_order(batch, cfg.lod_seed)
    boundaries = prefix_checksum_boundaries(len(order), cfg.lod_base, cfg.lod_scale)
    order = order[
        chunk_cluster_order(batch.positions[order], boundaries, cfg.chunk_size, cfg.lod_seed)
    ]
    return batch.permuted(order)


def test_s34_random_reorder_cost(batch_32k, report, benchmark):
    def reorder():
        order = random_lod_order(batch_32k, seed=1)
        return batch_32k.permuted(order)

    result = benchmark(reorder)
    assert len(result) == 32_768

    measured_ms = benchmark.stats["mean"] * 1e3
    step6_ms = median(timeit.repeat(lambda: writer_step6(batch_32k), number=1, repeat=15)) * 1e3
    table = Table(
        ["platform", "32K-particle reorder (ms)"],
        title="§3.4 — LOD reorder cost for 32K particles",
    )
    table.add_row(["Mira (paper)", f"{PAPER_MIRA_MS:.0f}"])
    table.add_row(["Theta (paper)", f"{PAPER_THETA_MS:.0f}"])
    table.add_row(["this host (measured)", f"{measured_ms:.2f}"])
    table.add_row(["this host, writer step 6 (+ chunk clustering)", f"{step6_ms:.2f}"])
    report("s34_reorder_cost", table)

    # Same order of magnitude as the paper's single-core measurements:
    # well under a second, i.e. never the bottleneck of a write.
    assert measured_ms < 1_000
    assert step6_ms < 1_000


def test_s34_stratified_reorder_cost(batch_32k, report, benchmark):
    """The density-aware ordering is costlier but still sub-second."""

    def reorder():
        order = stratified_lod_order(batch_32k, seed=1)
        return batch_32k.permuted(order)

    result = benchmark(reorder)
    assert len(result) == 32_768
    assert benchmark.stats["mean"] < 1.0
