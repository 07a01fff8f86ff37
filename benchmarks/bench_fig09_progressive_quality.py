"""Figure 9 — progressive rendering quality of a coal-injection jet.

The paper renders a 55M-particle coal injection at 25/50/75/100% of the
data and argues the low-resolution views "still provide a good
representation".  We regenerate that as numbers: a (scaled-down) jet is
written in LOD order; the "f% render state" is what a reader actually loads
at that budget — the first f% of *each* file — drawn with volume-preserving
radius scaling and scored for coverage/NRMSE against the full render.
"""

import numpy as np
import pytest

from repro.core import SpatialReader, SpatialWriter, WriterConfig
from repro.domain import Box, PatchDecomposition
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles.dtype import MINIMAL_DTYPE
from repro.query.engine import QueryPlan
from repro.utils import Table
from repro.viz import SplatRenderer, coverage, lod_radius_scale, normalized_rmse
from repro.workloads import UintahWorkload

NPROCS = 16
PER_RANK = 40_000  # 55M in the paper; scaled to simulator size
FRACTIONS = (0.25, 0.5, 0.75, 1.0)
DOMAIN = Box([0, 0, 0], [1, 1, 1])


@pytest.fixture(scope="module")
def jet_reader():
    decomp = PatchDecomposition.for_nprocs(DOMAIN, NPROCS)
    workload = UintahWorkload(
        decomp, PER_RANK, distribution="jet", seed=9, dtype=MINIMAL_DTYPE
    )
    backend = VirtualBackend()
    writer = SpatialWriter(WriterConfig(partition_factor=(2, 2, 2)))
    run_mpi(
        NPROCS,
        lambda c: writer.write(c, workload.generate_rank(c.rank), decomp, backend),
    )
    return SpatialReader(backend)


def load_fraction(reader: SpatialReader, fraction: float):
    """The render state at a given budget: the head of every file."""
    return reader.execute(
        QueryPlan(
            [(rec, int(round(rec.particle_count * fraction))) for rec in reader.metadata]
        )
    )


def test_fig09_quality_table(jet_reader, report, benchmark):
    renderer = SplatRenderer(DOMAIN, resolution=128, base_radius_px=1.25)
    total = jet_reader.total_particles
    full_img = renderer.render(load_fraction(jet_reader, 1.0))

    table = Table(
        ["fraction of data", "particles", "coverage", "NRMSE"],
        title=f"Fig. 9 — progressive jet render quality ({total} particles)",
    )
    stats = {}
    for f in FRACTIONS:
        state = load_fraction(jet_reader, f)
        scale = lod_radius_scale(total, len(state))
        img = renderer.render(state, radius_scale=scale)
        stats[f] = (coverage(img, full_img), normalized_rmse(img, full_img))
        table.add_row(
            [f"{100 * f:.0f}%", len(state), f"{stats[f][0]:.3f}", f"{stats[f][1]:.4f}"]
        )
    report("fig09_quality", table)

    # "Most of the features are still visible even using only 25%."
    assert stats[0.25][0] > 0.8
    covs = [stats[f][0] for f in FRACTIONS]
    assert all(a <= b + 1e-9 for a, b in zip(covs, covs[1:]))
    assert stats[1.0][0] == 1.0
    assert stats[1.0][1] == pytest.approx(0.0)

    benchmark(lambda: load_fraction(jet_reader, 0.25))


def test_fig09_lod_prefix_beats_file_order(jet_reader, report, benchmark):
    """Ablation: the LOD shuffle is what makes prefixes representative.

    Sorting the same particles by position (a spatially-ordered file with
    no LOD reordering) makes a 25% per-file prefix a *corner* of each
    region instead of a coarse whole."""
    renderer = SplatRenderer(DOMAIN, resolution=128, base_radius_px=1.25)
    total = jet_reader.total_particles
    everything = load_fraction(jet_reader, 1.0)
    full = renderer.render(everything)

    lod_state = load_fraction(jet_reader, 0.25)
    scale = lod_radius_scale(total, len(lod_state))
    lod_cov = coverage(renderer.render(lod_state, radius_scale=scale), full)

    # Strawman: same particles, sorted along x (an in-image axis: the
    # renderer projects along z) before taking the 25% prefix.
    sorted_batch = everything.permuted(
        np.argsort(everything.positions[:, 0], kind="stable")
    )
    k = len(lod_state)
    sorted_cov = coverage(
        renderer.render(sorted_batch[0:k], radius_scale=scale), full
    )

    table = Table(
        ["ordering", "coverage @ 25%"],
        title="Fig. 9 ablation — LOD shuffle vs spatial sort",
    )
    table.add_row(["LOD (random shuffle)", f"{lod_cov:.3f}"])
    table.add_row(["sorted by x", f"{sorted_cov:.3f}"])
    report("fig09_ablation_ordering", table)

    assert lod_cov > sorted_cov + 0.1
    benchmark(lambda: renderer.render(lod_state, radius_scale=scale))
