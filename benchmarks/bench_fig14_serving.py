"""Multi-tenant serving with cross-query batched planning (Fig. 14).

The serving-layer extension of the paper's aggregation story: where the
writer merges many ranks' particles into few well-placed files and PR 5's
reader merges one query's chunks into few coalesced runs, the
:class:`~repro.serve.QueryService` merges *many concurrent queries'* runs
into one staged read pass per shared file.  This benchmark drives a
closed-loop multi-client workload with heavy spatial overlap (tenants
watching the same hot regions, the regime production dashboards live in)
through three execution modes over one chunk-indexed columnar dataset:

* **serial** — every query alone, back to back: the parity reference and
  the per-query op baseline;
* **unbatched concurrent** — the service with a zero batching window and
  width-1 batches: admission + threading, no cross-query coalescing;
* **batched** — the service collecting the same burst into full batching
  windows: shared files staged once, queries answered from the stage.

Asserted shape:

* batched results are **bit-identical** to serial execution, query by
  query, with delivery-equivalent ``ReadReport``s;
* batching cuts backend read+open ops by >= 1.5x vs. unbatched concurrent
  execution of the identical workload (the acceptance ratio, reported as
  ``ops_saved_ratio``);
* the service's own ``server.*`` accounting (batch widths, staged files,
  ops saved) is consistent with the backend's op log.

``BENCH_fig14_serving.json`` carries ops per mode, the ops-saved ratio,
queries/sec, and p50/p99 latency for the batched run.
"""

import time

import numpy as np

from repro.core.config import WriterConfig
from repro.dataset import Dataset
from repro.domain import Box
from repro.io.executor import SerialExecutor
from repro.serve import QueryService
from repro.utils import Table

from tests.conftest import write_dataset

NPROCS = 16
FACTOR = (2, 2, 1)
PER_RANK = 2500
CLIENTS = 6
QUERIES_PER_CLIENT = 5

#: Hot regions the clients' queries cluster around: multi-tenant serving
#: overlap comes from many consumers watching the same interesting physics.
HOTSPOTS = (
    (0.15, 0.25, 0.30),
    (0.60, 0.55, 0.45),
    (0.40, 0.70, 0.60),
)


def _workload(seed: int) -> list[tuple[str, Box]]:
    """The closed-loop query mix: (client, box), heavy hotspot overlap."""
    rng = np.random.default_rng(seed)
    queries: list[tuple[str, Box]] = []
    for c in range(CLIENTS):
        for _ in range(QUERIES_PER_CLIENT):
            center = np.asarray(HOTSPOTS[int(rng.integers(len(HOTSPOTS)))])
            jitter = rng.uniform(-0.08, 0.08, 3)
            half = rng.uniform(0.10, 0.22, 3)
            lo = np.clip(center + jitter - half, 0.0, 1.0)
            hi = np.clip(center + jitter + half, 0.0, 1.0)
            queries.append((f"tenant-{c}", Box(lo, hi)))
    return queries


def _read_ops(backend) -> int:
    """Backend effort: read passes + opens (VirtualBackend logs one ``read``
    op per readv/readinto and one ``open`` per read_file)."""
    return len(backend.ops_of_kind("read")) + len(backend.ops_of_kind("open"))


def test_fig14_cross_query_batched_serving(report, bench_json):
    backend, _decomp, _results = write_dataset(
        nprocs=NPROCS,
        partition_factor=FACTOR,
        particles_per_rank=PER_RANK,
        config=WriterConfig(
            partition_factor=FACTOR, layout="columnar", codec="shuffle-zlib"
        ),
    )
    queries = _workload(seed=421)

    # -- serial reference: each query alone, SerialExecutor, no service ----
    ds_serial = Dataset.open(backend, executor=SerialExecutor())
    engine = ds_serial.engine()
    backend.clear_ops()
    t0 = time.perf_counter()
    serial = [engine.run(engine.plan_box(box), exact=True) for _c, box in queries]
    serial_s = time.perf_counter() - t0
    serial_ops = _read_ops(backend)

    # -- unbatched concurrent: admission + workers, no coalescing ----------
    ds_unbatched = Dataset.open(backend, executor=SerialExecutor())
    backend.clear_ops()
    t0 = time.perf_counter()
    with QueryService(
        ds_unbatched, max_workers=4, batch_window=0.0, max_batch=1
    ) as service:
        futures = [
            service.submit(box, client=client) for client, box in queries
        ]
        unbatched = [f.result(timeout=120) for f in futures]
    unbatched_s = time.perf_counter() - t0
    unbatched_ops = _read_ops(backend)

    # -- batched: the same burst through full batching windows -------------
    ds_batched = Dataset.open(backend, executor=SerialExecutor())
    backend.clear_ops()
    t0 = time.perf_counter()
    with QueryService(
        ds_batched,
        max_workers=4,
        batch_window=0.05,
        max_batch=len(queries),
        autostart=False,
    ) as service:
        futures = [
            service.submit(box, client=client) for client, box in queries
        ]
        service.start()
        batched = [f.result(timeout=120) for f in futures]
        stats = service.stats()
    batched_s = time.perf_counter() - t0
    batched_ops = _read_ops(backend)

    # -- parity: batched == serial, bit for bit, query by query ------------
    for s, u, b in zip(serial, unbatched, batched):
        assert np.array_equal(s.batch.data, u.batch.data)
        assert np.array_equal(s.batch.data, b.batch.data)
        assert s.report.equivalent(b.report)

    ratio = unbatched_ops / max(batched_ops, 1)
    table = Table(
        ["mode", "backend ops", "ops vs unbatched", "wall s", "queries/s"]
    )
    for mode, ops, secs in (
        ("serial", serial_ops, serial_s),
        ("unbatched concurrent", unbatched_ops, unbatched_s),
        ("batched (staged)", batched_ops, batched_s),
    ):
        table.add_row(
            [
                mode,
                ops,
                f"{unbatched_ops / max(ops, 1):.2f}x",
                f"{secs:.3f}",
                f"{len(queries) / secs:.1f}",
            ]
        )
    report("fig14_serving", table)

    bench_json(
        "fig14_serving",
        {
            "workload": {
                "clients": CLIENTS,
                "queries_per_client": QUERIES_PER_CLIENT,
                "total_queries": len(queries),
                "files": ds_serial.num_files,
                "particles": ds_serial.total_particles,
                "hotspots": [list(h) for h in HOTSPOTS],
            },
            "backend_ops": {
                "serial": serial_ops,
                "unbatched_concurrent": unbatched_ops,
                "batched": batched_ops,
            },
            "ops_saved_ratio": ratio,
            "queries_per_sec": {
                "serial": len(queries) / serial_s,
                "unbatched_concurrent": len(queries) / unbatched_s,
                "batched": len(queries) / batched_s,
            },
            "latency_ms": {
                "p50": stats["p50_latency_s"] * 1e3,
                "p99": stats["p99_latency_s"] * 1e3,
            },
            "server": {
                "batches": stats["batches"],
                "mean_batch_width": stats["mean_batch_width"],
                "staged_files": stats["staged_files"],
                "ops_saved": stats["ops_saved"],
            },
            "bit_identical_to_serial": True,
        },
    )

    # The acceptance shape: overlapping tenants served from shared staged
    # reads cost >= 1.5x fewer backend ops than unbatched concurrency.
    assert ratio >= 1.5, (
        f"cross-query batching saved only {ratio:.2f}x backend ops "
        f"({unbatched_ops} -> {batched_ops})"
    )
    # The service's own ledger agrees that staging did the work.
    assert stats["staged_files"] > 0
    assert stats["ops_saved"] > 0
    assert stats["mean_batch_width"] > 1.0
