"""Command-line utilities over spio datasets.

Nine subcommands, mirroring what a user pokes at day to day::

    python -m repro.cli info <dataset-dir>
        Manifest, LOD parameters, per-file table.

    python -m repro.cli query <dataset-dir> --box x0 y0 z0 x1 y1 z1 [--level L]
                                            [--attrs a,b] [--where ATTR:LO:HI]
        Spatial query: particles matched, files touched.  On columnar (v4)
        data ``--attrs`` reads only the named column segments and
        ``--where`` pushes a range predicate down to chunk pruning.

    python -m repro.cli write <dataset-dir> --ranks 16 --particles 4096 ...
        Generate and write a synthetic dataset (simulated MPI in-process).

    python -m repro.cli scrub <dataset-dir>
        Verify every checksum/header/count invariant; exit 1 on damage.

    python -m repro.cli repair <dataset-dir> [--dry-run] [--workers N]
        Scrub, then fix what the scrub found: rebuild ``spatial.meta`` /
        ``manifest.json`` from the v3 recovery trailers, truncate torn data
        files to their longest checksum-verified LOD prefix, quarantine the
        unrecoverable rest.  Detects a series root (``series.json``) and
        repairs every indexed timestep.  ``--dry-run`` prints the plan
        without writing a byte.

    python -m repro.cli compact <dataset-dir> [--dry-run] [--workers N]
        Merge a generation chain's many small per-step files into
        consolidated chunk-indexed ones as a new generation, then drop
        generations beyond the retention window (``--keep``, default 2).
        Readers pinned to a retained generation are unaffected.

    python -m repro.cli serve <dataset-dir> --clients 4 --queries 8 ...
        Closed-loop serving demo: start a QueryService over the dataset,
        drive N client threads issuing seeded random box queries through
        the admission/batching pipeline, and print throughput, latency
        percentiles, batch widths, and backend ops saved by cross-query
        staging.  Exits 0 after a clean shutdown.

    python -m repro.cli estimate --machine Theta --procs 262144 ...
        Performance-model estimate for a write at HPC scale.

    python -m repro.cli trace <dataset-dir> [--out trace.json] ...
        Run an instrumented read (or, on an empty directory, a synthetic
        write) and export the merged recorder as a Chrome trace or JSONL.

Exit-code contract (``scrub`` and ``repair``, asserted by the test suite):

* **0** — the dataset verifies clean (scrub), or repair converged without
  losing a particle;
* **1** — damage was found (scrub, or ``repair --dry-run``), or repair had
  to cost data to converge (truncation/quarantine) or could not converge;
* **2** — operational error: the target is not a dataset, arguments are
  invalid, the backend failed — any :class:`~repro.errors.ReproError`,
  which surfaces as a one-line message on stderr.  Tracebacks are reserved
  for actual bugs.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.utils.tables import Table
from repro.utils.units import GB, format_bytes, format_seconds


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.dataset import Dataset

    ds = Dataset.open(args.dataset)
    m = ds.manifest
    print(f"dataset         : {args.dataset}")
    print(f"particles       : {ds.total_particles}")
    print(f"files           : {ds.num_files}")
    print(f"dtype           : {m.dtype}")
    print(f"LOD             : P={m.lod_base} S={m.lod_scale} "
          f"heuristic={m.lod_heuristic}")
    generations = ds.generations()
    if ds.generation > 0 or len(generations) > 1:
        print(f"generation      : {ds.generation} "
              f"(on disk: {', '.join(map(str, generations))})")
    print(f"domain          : {ds.domain()}")
    if ds.metadata.attr_names:
        print(f"indexed attrs   : {', '.join(ds.metadata.attr_names)}")
    for gen in generations or [ds.generation]:
        gds = ds if gen == ds.generation else ds.at_generation(gen)
        cfg = gds.manifest.writer.get("config", {}) or {}
        layout = str(cfg.get("layout", "row"))
        codecs = sorted(
            {
                str(entry.get("codec"))
                for entry in gds.manifest.checksums.values()
                if isinstance(entry, dict) and entry.get("codec") is not None
            }
        )
        version = "v4 (columnar)" if codecs else "v3 (row)"
        line = f"generation {gen:>4}  : format {version}, layout {layout}"
        if codecs:
            line += f", codecs {', '.join(codecs)}"
        print(line)
    table = Table(["box id", "agg rank", "file", "particles", "lo", "hi"])
    for rec in ds.metadata:
        table.add_row(
            [
                rec.box_id,
                rec.agg_rank,
                rec.file_path,
                rec.particle_count,
                "[" + ", ".join(f"{v:.3g}" for v in rec.bounds.lo) + "]",
                "[" + ", ".join(f"{v:.3g}" for v in rec.bounds.hi) + "]",
            ]
        )
    print(table)
    return 0


def _remote_target(args: argparse.Namespace):
    """Build the ``--remote`` read stack over the dataset directory.

    The local directory plays the object store; a simulated transport adds
    RTT/bandwidth/cost physics on top (``--rtt-ms``), and the resilient
    stack (retry, hedging, circuit breaker, RAM cache) wraps it.  Returns
    ``(open_target, transport)`` — the transport is kept so commands can
    print the request/cost ledger afterwards.  The caller closes the stack
    (:func:`_on_read_target` does): its hedging pool owns threads.
    """
    from repro.io.posix import PosixBackend
    from repro.io.remote import OutagePlan, SimulatedTransport
    from repro.io.resilience import Hedger, build_remote_stack
    from repro.io.retry import RetryPolicy

    store = PosixBackend(args.dataset, create=False)
    down = getattr(args, "outage", None)
    slow = getattr(args, "slow", None)
    outages = None
    if down or slow:
        outages = OutagePlan(
            down=((int(down[0]), int(down[1])),) if down else (),
            slow=(
                ((int(slow[0]), int(slow[1]), float(slow[2])),) if slow else ()
            ),
        )
    transport = SimulatedTransport(
        store,
        rtt_s=args.rtt_ms / 1000.0,
        seed=getattr(args, "seed", 0),
        outages=outages,
    )
    cache_bytes = int(args.cache_mb * 2**20)
    stack = build_remote_stack(
        transport,
        ram_cache_bytes=cache_bytes if cache_bytes else 8 << 20,
        disk_cache_dir=None,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
        hedger=Hedger(),
    )
    return stack, transport


def _on_read_target(args: argparse.Namespace, run) -> int:
    """``run(args, target, transport, cache_bytes)`` on what a read command
    opens: the dataset directory or, with ``--remote``, the remote stack,
    which is closed afterwards whatever ``run`` did."""
    if not args.remote:
        return run(args, args.dataset, None, int(args.cache_mb * 2**20))
    stack, transport = _remote_target(args)
    try:
        return run(args, stack, transport, 0)  # the stack has its own RAM tier
    finally:
        stack.close()


def _print_remote_stats(transport) -> None:
    stats = transport.stats
    print(f"remote requests : {stats.requests} "
          f"({stats.timeouts} timeouts, {stats.unavailable} refused)")
    print(f"remote bytes    : {format_bytes(stats.bytes_moved)}")
    print(f"remote cost     : ${stats.cost:.6f}")
    print(f"remote time     : {transport.virtual_time_s * 1e3:.1f} ms simulated")


def _executor(args: argparse.Namespace):
    """The executor the ``--workers`` / ``--process-pool`` flags select."""
    from repro.io.executor import executor_for

    mode = "process" if getattr(args, "process_pool", False) else "thread"
    return executor_for(args.workers, mode=mode)


def _cmd_query(args: argparse.Namespace) -> int:
    return _on_read_target(args, _query)


def _query(args: argparse.Namespace, target, transport, cache_bytes: int) -> int:
    from repro.dataset import Dataset
    from repro.domain.box import Box
    from repro.io.resilience import Deadline, deadline_scope

    reader = Dataset.open(
        target,
        executor=_executor(args),
        cache_bytes=cache_bytes,
    ).reader()
    box = Box(args.box[:3], args.box[3:])
    attrs = None
    if args.attrs is not None:
        attrs = [a.strip() for a in args.attrs.split(",") if a.strip()]
    where = {}
    for clause in args.where or []:
        parts = clause.split(":")
        if len(parts) != 3:
            print(f"error: --where expects ATTR:LO:HI, got {clause!r}",
                  file=sys.stderr)
            return 2
        try:
            where[parts[0]] = (float(parts[1]), float(parts[2]))
        except ValueError:
            print(f"error: --where bounds must be numbers, got {clause!r}",
                  file=sys.stderr)
            return 2
    deadline = (
        Deadline.after(args.deadline_ms / 1000.0)
        if args.deadline_ms is not None
        else None
    )
    with deadline_scope(deadline):
        plan = reader.plan_box_read(
            box, max_level=args.level, nreaders=args.readers,
            attrs=attrs, where=where or None,
        )
        hits = reader.execute(plan, exact=True)
    print(f"query box       : {box}")
    if plan.attrs is not None:
        print(f"projection      : position, {', '.join(plan.attrs)}"
              if plan.attrs else "projection      : position")
    for name, (lo, hi) in plan.where.items():
        print(f"pushdown        : {name} in [{lo:g}, {hi:g}]")
    print(f"files touched   : {plan.num_files} / {reader.num_files}")
    print(f"particles read  : {plan.total_particles}")
    if plan.chunk_runs:
        print(f"chunk-pruned to : {plan.pruned_particles} particles")
    print(f"particles in box: {len(hits)}")
    row_bytes = plan.result_dtype(reader.dtype).itemsize
    print(f"bytes read      : {format_bytes(plan.bytes_to_read(row_bytes))}")
    if transport is not None:
        _print_remote_stats(transport)
    return 0


def _cmd_write(args: argparse.Namespace) -> int:
    from repro.core import SpatialWriter, WriterConfig
    from repro.domain.box import Box
    from repro.domain.decomposition import PatchDecomposition
    from repro.io.posix import PosixBackend
    from repro.mpi import run_mpi
    from repro.workloads import UintahWorkload

    domain = Box([0, 0, 0], [1, 1, 1])
    decomp = PatchDecomposition.for_nprocs(domain, args.ranks)
    workload = UintahWorkload(
        decomp,
        particles_per_core=args.particles,
        distribution=args.distribution,
        seed=args.seed,
    )
    config = WriterConfig(
        partition_factor=tuple(args.factor),
        adaptive=args.adaptive,
        layout=args.layout,
        codec=args.codec,
    )
    backend = PosixBackend(args.dataset)
    writer = SpatialWriter(config)

    results = run_mpi(
        args.ranks,
        lambda comm: writer.write(
            comm, workload.generate_rank(comm.rank), decomp, backend
        ),
    )
    files = sum(len(r.files_written) for r in results)
    total = sum(r.bytes_written for r in results)
    print(
        f"wrote {files} files ({format_bytes(total)}) from {args.ranks} "
        f"simulated ranks into {args.dataset}"
    )
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.dataset import Dataset

    ds = Dataset(args.dataset, executor=_executor(args))
    report = ds.scrub()
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.dataset import Dataset
    from repro.series.index import SERIES_INDEX_PATH

    ds = Dataset(args.dataset, executor=_executor(args))
    if ds.backend.exists(SERIES_INDEX_PATH):
        from repro.core.repair import repair_series

        report = repair_series(ds, dry_run=args.dry_run)
    else:
        report = ds.repair(dry_run=args.dry_run)
    for line in report.summary_lines():
        print(line)
    return report.exit_code


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.core.compact import compact_dataset
    from repro.dataset import Dataset

    ds = Dataset(args.dataset, executor=_executor(args))
    report = compact_dataset(
        ds,
        target_files=args.target_files,
        keep=args.keep,
        gc=not args.no_gc,
        dry_run=args.dry_run,
    )
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    return _on_read_target(args, _serve)


def _serve(args: argparse.Namespace, target, transport, cache_bytes: int) -> int:
    import threading

    import numpy as np

    from repro.dataset import Dataset
    from repro.domain.box import Box
    from repro.errors import AdmissionError, DeadlineExceededError
    from repro.serve import ClientQuota, QueryService

    ds = Dataset.open(
        target,
        strict=not args.degraded,
        executor=_executor(args),
        cache_bytes=cache_bytes,
    )
    domain = ds.domain()
    lo = np.asarray(domain.lo, dtype=np.float64)
    hi = np.asarray(domain.hi, dtype=np.float64)
    span = hi - lo

    results: dict[str, int] = {
        "queries": 0, "particles": 0, "rejected": 0, "deadline": 0,
    }
    results_lock = threading.Lock()
    deadline_s = (
        args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    )

    def client_loop(service: QueryService, name: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        done = 0
        while done < args.queries:
            blo = lo + rng.uniform(0.0, 0.6, lo.shape) * span
            bhi = np.minimum(blo + rng.uniform(0.2, 0.5, lo.shape) * span, hi)
            try:
                result = service.query(
                    Box(blo, bhi), client=name, deadline_s=deadline_s
                )
            except AdmissionError:
                with results_lock:
                    results["rejected"] += 1
                continue
            except DeadlineExceededError:
                done += 1
                with results_lock:
                    results["deadline"] += 1
                continue
            done += 1
            with results_lock:
                results["queries"] += 1
                results["particles"] += len(result.batch)

    quota = ClientQuota(
        max_inflight=args.max_inflight if args.max_inflight > 0 else None
    )
    with QueryService(
        ds,
        max_workers=args.workers,
        batch_window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        quota=quota,
    ) as service:
        threads = [
            threading.Thread(
                target=client_loop,
                args=(service, f"client-{i}", args.seed + i),
                name=f"serve-client-{i}",
            )
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close(drain_timeout=30.0)
        stats = service.stats()
    print(f"dataset         : {args.dataset}")
    print(f"clients         : {args.clients} x {args.queries} queries")
    print(f"queries served  : {results['queries']}")
    print(f"particles       : {results['particles']}")
    print(f"rejections      : {results['rejected']} (admission retried)")
    if args.deadline_ms is not None:
        print(f"deadline misses : {results['deadline']}")
    if stats["cancelled"]:
        print(f"cancelled       : {stats['cancelled']} (drain timeout)")
    print(f"batches         : {stats['batches']} "
          f"(mean width {stats['mean_batch_width']:.2f})")
    print(f"staged files    : {stats['staged_files']}")
    print(f"backend ops saved: {stats['ops_saved']}")
    print(f"p50 latency     : {stats['p50_latency_s'] * 1e3:.2f} ms")
    print(f"p99 latency     : {stats['p99_latency_s'] * 1e3:.2f} ms")
    for client, nbytes in sorted(stats["client_bytes"].items()):
        print(f"bytes[{client}] : {format_bytes(nbytes)}")
    if transport is not None:
        _print_remote_stats(transport)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.perf import MACHINES, simulate_baseline_write, simulate_write

    machine = MACHINES.get(args.machine)
    if machine is None:
        print(f"unknown machine {args.machine!r}; known: {sorted(MACHINES)}",
              file=sys.stderr)
        return 2
    if args.strategy in ("ior-fpp", "ior-shared", "phdf5"):
        est = simulate_baseline_write(machine, args.procs, args.particles, args.strategy)
    else:
        factor = tuple(int(v) for v in args.strategy.split("x"))
        est = simulate_write(machine, args.procs, args.particles, factor)  # type: ignore[arg-type]
    print(f"machine         : {est.machine}")
    print(f"strategy        : {est.strategy}")
    print(f"processes       : {est.nprocs}")
    print(f"files           : {est.n_files}")
    print(f"data            : {format_bytes(est.total_bytes)}")
    print(f"aggregation     : {format_seconds(est.aggregation_time)}")
    print(f"file I/O        : {format_seconds(est.io_time)}")
    print(f"total           : {format_seconds(est.total_time)}")
    print(f"throughput      : {est.throughput / GB:.2f} GB/s")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.format.manifest import MANIFEST_PATH
    from repro.io.posix import PosixBackend
    from repro.obs import (
        Recorder,
        summary_lines,
        write_chrome_trace,
        write_jsonl,
    )

    backend = PosixBackend(args.dataset)
    io_recorder = Recorder(rank=-1)
    backend.attach_recorder(io_recorder)

    if backend.exists(MANIFEST_PATH):
        # Existing dataset: trace a full instrumented read.
        from repro.dataset import Dataset
        from repro.domain.box import Box

        ds = Dataset(
            backend,
            strict=False,
            executor=_executor(args),
            cache_bytes=int(args.cache_mb * 2**20),
        )
        # Re-attach through the facade's backend so a cache wrapper's
        # cache.* counters land in the trace alongside the io.* ones.
        ds.backend.attach_recorder(io_recorder)
        reader = ds.reader()
        if args.box is not None:
            box = Box(args.box[:3], args.box[3:])
            plan = reader.plan_box_read(box, max_level=args.level)
        else:
            plan = reader.plan_full_read(max_level=args.level)
        batch = reader.execute(plan)
        merged = Recorder.merged([reader.recorder, io_recorder])
        report = reader.last_report
        print(f"traced read     : {len(batch)} particles from "
              f"{plan.num_files} files")
        if report is not None and not report.complete:
            print(f"degraded        : {report.partitions_skipped} "
                  f"partitions skipped")
    else:
        # Empty target: trace a synthetic collective write.
        from repro.core import SpatialWriter, WriterConfig
        from repro.domain.box import Box
        from repro.domain.decomposition import PatchDecomposition
        from repro.mpi import run_mpi
        from repro.mpi.world import World
        from repro.workloads import UintahWorkload

        domain = Box([0, 0, 0], [1, 1, 1])
        decomp = PatchDecomposition.for_nprocs(domain, args.ranks)
        workload = UintahWorkload(
            decomp, particles_per_core=args.particles, seed=args.seed
        )
        writer = SpatialWriter(WriterConfig(partition_factor=tuple(args.factor)))
        world = World(args.ranks)
        results = run_mpi(
            args.ranks,
            lambda comm: writer.write(
                comm, workload.generate_rank(comm.rank), decomp, backend
            ),
            world=world,
        )
        merged = Recorder.merged(
            [r.recorder for r in results] + [world.recorder, io_recorder]
        )
        files = sum(len(r.files_written) for r in results)
        print(f"traced write    : {files} files from {args.ranks} "
              f"simulated ranks")

    out = args.out
    if out is None:
        suffix = "jsonl" if args.format == "jsonl" else "json"
        out = os.path.join(args.dataset, f"trace.{suffix}")
    if args.format == "jsonl":
        write_jsonl(merged, out)
    else:
        write_chrome_trace(merged, out)
    print(f"trace written   : {out} ({args.format})")
    for line in summary_lines(merged):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Spatially-aware particle I/O utilities (ICPP 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a dataset")
    p.add_argument("dataset")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("query", help="spatial box query")
    p.add_argument("dataset")
    p.add_argument("--box", nargs=6, type=float, required=True,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"))
    p.add_argument("--level", type=int, default=None, help="max LOD level")
    p.add_argument("--readers", type=int, default=1)
    p.add_argument("--attrs", default=None,
                   help="comma-separated attributes to read (columnar "
                        "projection; position always included)")
    p.add_argument("--where", action="append", default=None,
                   metavar="ATTR:LO:HI",
                   help="attribute range predicate, pushed down to "
                        "chunk pruning (repeatable)")
    p.add_argument("--cache-mb", type=float, default=0.0,
                   help="block-cache budget in MiB (0 disables caching)")
    p.add_argument("--remote", action="store_true",
                   help="read through a simulated remote object store "
                        "(resilient stack: retry, hedge, breaker, cache)")
    p.add_argument("--rtt-ms", type=float, default=50.0,
                   help="simulated remote round-trip time (with --remote)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="end-to-end query deadline in milliseconds")
    p.add_argument("--outage", nargs=2, type=int, default=None,
                   metavar=("START", "STOP"),
                   help="refuse remote requests with ordinals in "
                        "[START, STOP) (with --remote)")
    p.add_argument("--slow", nargs=3, type=float, default=None,
                   metavar=("START", "STOP", "FACTOR"),
                   help="inflate remote latency by FACTOR for request "
                        "ordinals in [START, STOP) (with --remote)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent per-file reads (1 = serial)")
    p.add_argument("--process-pool", action="store_true",
                   help="run CRC+decode in worker processes instead of "
                        "threads (escapes the GIL; needs --workers > 1)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("write", help="write a synthetic dataset")
    p.add_argument("dataset")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--particles", type=int, default=4096)
    p.add_argument("--factor", nargs=3, type=int, default=[2, 2, 2])
    p.add_argument("--distribution", default="uniform",
                   choices=["uniform", "clustered", "jet"])
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--layout", default="row", choices=["row", "columnar"],
                   help="payload layout: row (v3) or columnar (v4)")
    p.add_argument("--codec", default="none",
                   help="columnar per-segment codec (none, shuffle-zlib, "
                        "shuffle-lz4 when available)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_write)

    p = sub.add_parser("scrub", help="verify a dataset's integrity invariants")
    p.add_argument("dataset")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent per-file verification (1 = serial)")
    p.add_argument("--process-pool", action="store_true",
                   help="verify in worker processes instead of threads")
    p.set_defaults(func=_cmd_scrub)

    p = sub.add_parser(
        "repair",
        help="repair a damaged dataset (or series) from its recovery trailers",
    )
    p.add_argument("dataset")
    p.add_argument("--dry-run", action="store_true",
                   help="print the repair plan without writing anything")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent per-file repair work (1 = serial)")
    p.add_argument("--process-pool", action="store_true",
                   help="repair in worker processes instead of threads")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser(
        "compact",
        help="merge a generation chain's small files into consolidated ones",
    )
    p.add_argument("dataset")
    p.add_argument("--dry-run", action="store_true",
                   help="print the compaction plan without writing anything")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent read work during the merge (1 = serial)")
    p.add_argument("--process-pool", action="store_true",
                   help="read in worker processes instead of threads")
    p.add_argument("--target-files", type=int, default=None,
                   help="consolidated file count (default: files/8, min 1)")
    p.add_argument("--keep", type=int, default=2,
                   help="generations retained for pinned readers (default 2)")
    p.add_argument("--no-gc", action="store_true",
                   help="skip the retention pass; old generations stay")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "serve",
        help="closed-loop multi-client serving demo over a dataset",
    )
    p.add_argument("dataset")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads (default 4)")
    p.add_argument("--queries", type=int, default=8,
                   help="queries issued per client (default 8)")
    p.add_argument("--window-ms", type=float, default=5.0,
                   help="batching window in milliseconds (default 5)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max queries coalesced per batch (default 16)")
    p.add_argument("--max-inflight", type=int, default=0,
                   help="per-client inflight quota (0 = unlimited)")
    p.add_argument("--workers", type=int, default=4,
                   help="service worker threads (default 4)")
    p.add_argument("--process-pool", action="store_true",
                   help="per-file reads in worker processes instead of "
                        "threads")
    p.add_argument("--cache-mb", type=float, default=0.0,
                   help="shared block-cache budget in MiB (0 disables)")
    p.add_argument("--remote", action="store_true",
                   help="serve through a simulated remote object store "
                        "(resilient stack: retry, hedge, breaker, cache)")
    p.add_argument("--rtt-ms", type=float, default=50.0,
                   help="simulated remote round-trip time (with --remote)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query end-to-end deadline in milliseconds")
    p.add_argument("--outage", nargs=2, type=int, default=None,
                   metavar=("START", "STOP"),
                   help="refuse remote requests with ordinals in "
                        "[START, STOP) (with --remote)")
    p.add_argument("--slow", nargs=3, type=float, default=None,
                   metavar=("START", "STOP", "FACTOR"),
                   help="inflate remote latency by FACTOR for request "
                        "ordinals in [START, STOP) (with --remote)")
    p.add_argument("--degraded", action="store_true",
                   help="serve degraded reads (skip damaged partitions)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for the clients' query streams")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("estimate", help="performance-model write estimate")
    p.add_argument("--machine", default="Theta")
    p.add_argument("--procs", type=int, default=262_144)
    p.add_argument("--particles", type=int, default=32_768)
    p.add_argument("--strategy", default="1x2x2",
                   help="PxQxR partition factor or ior-fpp/ior-shared/phdf5")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "trace",
        help="run an instrumented read (or synthetic write) and export a trace",
    )
    p.add_argument("dataset")
    p.add_argument("--out", default=None,
                   help="output path (default <dataset>/trace.json[l])")
    p.add_argument("--format", choices=["chrome", "jsonl"], default="chrome")
    p.add_argument("--box", nargs=6, type=float, default=None,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"),
                   help="trace a box query instead of a full read")
    p.add_argument("--level", type=int, default=None, help="max LOD level")
    p.add_argument("--cache-mb", type=float, default=0.0,
                   help="block-cache budget in MiB (0 disables caching)")
    p.add_argument("--ranks", type=int, default=8,
                   help="synthetic-write mode: simulated ranks")
    p.add_argument("--particles", type=int, default=4096,
                   help="synthetic-write mode: particles per rank")
    p.add_argument("--factor", nargs=3, type=int, default=[2, 2, 2],
                   help="synthetic-write mode: partition factor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="read mode: concurrent per-file reads (1 = serial)")
    p.add_argument("--process-pool", action="store_true",
                   help="read mode: worker processes instead of threads")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
