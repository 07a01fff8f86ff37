"""Figure 7 — visualization-read strong scaling.

The paper reads a 2-billion-particle dataset (written at 64K cores) on
Theta (64-2048 readers) and on an SSD workstation (1-64 readers), in three
cases: (2,2,2) without spatial metadata, (2,2,2) with it, and (1,1,1)
(file-per-process) with it.  The machine-scale series comes from the read
model; a functional strong-scaling measurement at simulator scale confirms
the per-case access patterns (files opened, bytes moved).
"""

import pytest

from repro.core import SpatialReader
from repro.domain import Box
from repro.perf import THETA, WORKSTATION, simulate_parallel_read
from repro.utils import Table
from repro.workloads import (
    READ_PROCESS_COUNTS_THETA,
    READ_PROCESS_COUNTS_WORKSTATION,
)

from tests.conftest import write_dataset

TOTAL_PARTICLES = 2**31
TOTAL_BYTES = TOTAL_PARTICLES * 124.0
FILES_222 = 8_192     # 64K procs at (2,2,2)
FILES_111 = 65_536    # 64K procs at (1,1,1)


@pytest.mark.parametrize(
    "machine, readers",
    [
        (THETA, READ_PROCESS_COUNTS_THETA),
        (WORKSTATION, READ_PROCESS_COUNTS_WORKSTATION),
    ],
    ids=["theta", "workstation"],
)
def test_fig07_model_series(machine, readers, report, benchmark):
    table = Table(
        ["readers", "2x2x2 no meta (s)", "2x2x2 + meta (s)", "1x1x1 + meta (s)"],
        title=f"Fig. 7 — {machine.name}, 2B-particle dataset",
    )
    no_meta, with_meta, fpp_meta = {}, {}, {}
    for n in readers:
        a = simulate_parallel_read(machine, n, FILES_222, TOTAL_BYTES, with_metadata=False)
        b = simulate_parallel_read(machine, n, FILES_222, TOTAL_BYTES, with_metadata=True)
        c = simulate_parallel_read(machine, n, FILES_111, TOTAL_BYTES, with_metadata=True)
        no_meta[n], with_meta[n], fpp_meta[n] = (
            a.total_time,
            b.total_time,
            c.total_time,
        )
        table.add_row([n, f"{a.total_time:.2f}", f"{b.total_time:.2f}", f"{c.total_time:.2f}"])
    report(f"fig07_{machine.name.lower().split()[0]}", table)

    lo, hi = readers[0], readers[-1]
    # Metadata cases strong-scale; the blind case does not.
    assert with_meta[hi] < with_meta[lo] / 2
    assert fpp_meta[hi] < fpp_meta[lo] / 2
    assert no_meta[hi] >= no_meta[lo]
    # Metadata case is the best everywhere.
    for n in readers:
        assert with_meta[n] <= fpp_meta[n]
        assert with_meta[n] <= no_meta[n]
    benchmark(
        lambda: simulate_parallel_read(machine, hi, FILES_222, TOTAL_BYTES, True)
    )


def test_fig07_file_count_penalty_larger_on_theta(report, benchmark):
    """Fig. 7's third observation: 64K files hurt Theta much more than SSDs."""
    table = Table(
        ["machine", "8K files (s)", "64K files (s)", "penalty"],
        title="Fig. 7 — many-files penalty at 64 readers",
    )
    penalties = {}
    for m in (THETA, WORKSTATION):
        few = simulate_parallel_read(m, 64, FILES_222, TOTAL_BYTES).total_time
        many = simulate_parallel_read(m, 64, FILES_111, TOTAL_BYTES).total_time
        penalties[m.name] = many / few
        table.add_row([m.name, f"{few:.2f}", f"{many:.2f}", f"{many / few:.2f}x"])
    report("fig07_file_count_penalty", table)
    assert penalties["Theta"] > penalties["SSD workstation"]
    assert penalties["SSD workstation"] < 1.1  # 'almost comparable' on SSDs
    benchmark(lambda: simulate_parallel_read(THETA, 64, FILES_111, TOTAL_BYTES))


def test_fig07_functional_access_patterns(report, benchmark):
    """Functional check at simulator scale: per-reader files and bytes."""
    backend, _, _ = write_dataset(
        nprocs=16, partition_factor=(2, 2, 2), particles_per_rank=500
    )
    reader = SpatialReader(backend)

    table = Table(
        ["readers", "case", "files/reader", "MB/reader"],
        title="Fig. 7 (functional) — access pattern per reader, 16-rank dataset",
    )
    for nreaders in (1, 2):
        # with metadata: split the file list.
        backend.clear_ops()
        for r in range(nreaders):
            reader.read_assigned(nreaders, r)
        opens = len(backend.ops_of_kind("open"))
        mb = sum(op.nbytes for op in backend.ops_of_kind("read")) / 1e6
        table.add_row(
            [nreaders, "with metadata", opens / nreaders, f"{mb / nreaders:.2f}"]
        )

        # without metadata: every reader scans everything.
        backend.clear_ops()
        for _ in range(nreaders):
            reader.read_box_without_metadata(Box([0, 0, 0], [1, 1, 1]))
        opens = len(backend.ops_of_kind("open"))
        mb = sum(op.nbytes for op in backend.ops_of_kind("read")) / 1e6
        table.add_row(
            [nreaders, "without metadata", opens / nreaders, f"{mb / nreaders:.2f}"]
        )
    report("fig07_functional", table)
    benchmark(lambda: reader.read_assigned(2, 0))
