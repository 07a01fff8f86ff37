"""Figure 8 — level-of-detail read latency.

64 readers load progressively more levels of the 2-billion-particle dataset
(P=32, S=2 -> 20 levels).  The paper's shapes: on Theta the first ~8 levels
cost about the same (file opens dominate) and later levels grow with the
particle count; on the SSD workstation time tracks particle count much
earlier.  The functional half measures real prefix reads at simulator
scale and checks the bytes actually moved per level; the wall-clock half
times the same reads on this stack's own POSIX backend, where the flat
region is the read path's per-file fixed cost.
"""

import os
import platform
import time

import numpy as np
import pytest

from repro.core import ProgressiveReader, SpatialReader
from repro.core.lod import cumulative_level_count, max_level
from repro.dataset import Dataset
from repro.io import PosixBackend
from repro.perf import THETA, WORKSTATION, simulate_lod_read
from repro.utils import Table

from tests.conftest import write_dataset

TOTAL = 2**31
FILES = 8_192
READERS = 64


def test_fig08_paper_level_count(benchmark):
    """§5.4: l = log2(2^31 / (64*32)) = 20 levels."""
    assert benchmark(lambda: max_level(TOTAL, READERS, 32, 2)) == 20


@pytest.mark.parametrize(
    "machine", [THETA, WORKSTATION], ids=["theta", "workstation"]
)
def test_fig08_model_series(machine, report, benchmark):
    table = Table(
        ["levels read", "particles", "time (s)"],
        title=f"Fig. 8 — LOD reads on {machine.name} (64 readers, 2B particles)",
    )
    times = {}
    for upto in range(0, 21, 2):
        e = simulate_lod_read(machine, READERS, FILES, TOTAL, 124, upto)
        particles = min(TOTAL, cumulative_level_count(READERS, upto, 32, 2))
        times[upto] = e.total_time
        table.add_row([upto, particles, f"{e.total_time:.3f}"])
    report(f"fig08_{machine.name.lower().split()[0]}", table)

    assert all(
        times[a] <= times[b] + 1e-12 for a, b in zip(sorted(times), sorted(times)[1:])
    )
    if machine is THETA:
        # Flat early: levels 0-6 within 10% of each other (open-cost floor).
        assert times[6] < 1.1 * times[0]
        # Proportional late.
        assert times[20] > 5 * times[12]
    else:
        # The workstation grows with particle volume well before level 12.
        assert times[12] > 3 * times[6]
    benchmark(lambda: simulate_lod_read(machine, READERS, FILES, TOTAL, 124, 10))


def test_fig08_functional_lod_bytes(report, benchmark):
    """Real prefix reads: bytes per level double (S=2), reads never repeat."""
    backend, _, _ = write_dataset(
        nprocs=16, partition_factor=(2, 2, 2), particles_per_rank=2048
    )
    reader = SpatialReader(backend)
    prog = ProgressiveReader(reader, nreaders=1)

    table = Table(
        ["level", "new particles", "new MB", "cumulative %"],
        title="Fig. 8 (functional) — per-level read volume, 32K-particle dataset",
    )
    new_counts = []
    while not prog.done():
        backend.clear_ops()
        step = prog.refine()
        mb = sum(op.nbytes for op in backend.ops_of_kind("read")) / 1e6
        new_counts.append(len(step.new_particles))
        table.add_row(
            [
                step.level,
                len(step.new_particles),
                f"{mb:.3f}",
                f"{100 * step.fraction_loaded:.1f}",
            ]
        )
    report("fig08_functional", table)

    # Geometric growth with S = 2 until the tail.
    for a, b in zip(new_counts[:-2], new_counts[1:-1]):
        assert b == 2 * a
    assert sum(new_counts) == reader.total_particles

    def full_lod_cycle():
        p = ProgressiveReader(reader, nreaders=1)
        while not p.done():
            p.refine()

    benchmark(full_lod_cycle)


#: Warm ops timed per level (the median is reported), taken in rounds.
WALL_OPS = 400
WALL_ROUNDS = 20


def test_fig08_posix_wall(tmp_path, report):
    """Fig. 8's flat region on the real stack: ``plan_full(max_level=L)`` ->
    ``run`` over an 8-file dataset on :class:`PosixBackend`, every memo and
    page warm.  Per-file fixed cost is the level-0 time over the file count.
    Timings are reported, never asserted: they belong to the host.

    ``benchmarks/out/fig08_posix_wall.txt`` keeps two runs, one from before
    and one from after the read path's per-file bookkeeping was cut.
    """
    write_dataset(
        nprocs=8,
        partition_factor=(1, 1, 1),
        particles_per_rank=16_384,
        backend=PosixBackend(tmp_path / "ds"),
    )
    ds = Dataset.open(PosixBackend(tmp_path / "ds", create=False))
    engine = ds.engine()
    files = engine.plan_full().num_files
    levels = max_level(ds.total_particles, 1, ds.manifest.lod_base, ds.manifest.lod_scale)
    table = Table(
        ["level", "particles", "p25 (us)", "median (us)", "p75 (us)", "us / file"],
        title=(
            f"Fig. 8 (wall clock) — warm LOD reads, {files} files on PosixBackend; "
            f"median of {WALL_OPS} ops; nproc {os.cpu_count()}, "
            f"python {platform.python_version()}, numpy {np.__version__}"
        ),
    )
    plans = [engine.plan_full(max_level=level) for level in range(levels + 1)]
    for plan in plans:  # warm: handles pooled, pages mapped, memos filled
        for _ in range(20):
            engine.run(plan)
    # Levels take turns in rounds, so drift in the host hits them alike.
    times: list[list[float]] = [[] for _ in plans]
    for _ in range(WALL_ROUNDS):
        for level, plan in enumerate(plans):
            for _ in range(WALL_OPS // WALL_ROUNDS):
                start = time.perf_counter_ns()
                result = engine.run(engine.plan_full(max_level=level))
                times[level].append((time.perf_counter_ns() - start) / 1e3)
    medians = {}
    for level, plan in enumerate(plans):
        p25, p50, p75 = np.percentile(times[level], [25, 50, 75])
        medians[level] = p50
        table.add_row(
            [
                level,
                plan.total_particles,
                f"{p25:.0f}",
                f"{p50:.0f}",
                f"{p75:.0f}",
                f"{p50 / files:.1f}",
            ]
        )
    report("fig08_posix_wall", table)
    print(f"per-file fixed cost (level-0 median / files): {medians[0] / files:.1f} us")
    assert len(result) == plans[-1].total_particles == ds.total_particles
