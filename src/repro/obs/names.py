"""The instrumentation name registry.

Every span, counter, and event name used by the library lives here, so the
whole system shares one vocabulary and exported traces from any layer can be
compared side by side.  Names are dotted strings grouped by subsystem:

* ``PHASE_*`` — writer/reader pipeline phases (span names).  These are the
  labels of the paper's Figure 6; the two bars there are
  :data:`PHASE_AGGREGATION` and :data:`PHASE_FILE_IO`.
* ``MPI_*`` — traffic counters fed by the simulated MPI world, keyed by
  ``(source_rank, dest_rank)``.
* ``IO_*`` — Darshan-style per-file storage counters, keyed by ``(path,)``,
  plus retry/fault counters keyed by ``()`` or ``(kind,)``.
* ``EV_*`` — event (point-in-time) names.
"""

from __future__ import annotations

# -- pipeline phases (span names; Fig. 6 vocabulary) -----------------------

PHASE_SETUP = "setup"
PHASE_AGGREGATION = "aggregation"
PHASE_LOD = "lod"
PHASE_FILE_IO = "file_io"
PHASE_METADATA = "metadata"

#: Every phase the spatially-aware writer records, in pipeline order.
WRITER_PHASES = (
    PHASE_SETUP,
    PHASE_AGGREGATION,
    PHASE_LOD,
    PHASE_FILE_IO,
    PHASE_METADATA,
)

#: Phases the reader records (planning is metadata work; execution is I/O).
READER_PHASES = (PHASE_METADATA, PHASE_FILE_IO)

# -- MPI traffic counters (keyed by (source, dest) world ranks) -------------

MPI_MESSAGES = "mpi.messages"
MPI_BYTES = "mpi.bytes"
#: Collective operations initiated, keyed by (communicator-local rank,).
MPI_COLLECTIVES = "mpi.collectives"

# -- storage counters (Darshan-style, keyed by (path,)) ---------------------

#: Files opened.  A backend with a handle pool (``PosixBackend``) counts
#: one per pool miss; a backend without one counts one per call.
IO_OPENS = "io.opens"
IO_READS = "io.reads"
IO_WRITES = "io.writes"
IO_BYTES_READ = "io.bytes_read"
IO_BYTES_WRITTEN = "io.bytes_written"

#: Per-file counter names, in the order the Darshan-style table prints them.
IO_FILE_COUNTERS = (
    IO_OPENS,
    IO_READS,
    IO_WRITES,
    IO_BYTES_READ,
    IO_BYTES_WRITTEN,
)

# -- repair subsystem (spans / counters; see repro.core.repair) -------------

PHASE_REPAIR_SCRUB = "repair.scrub"
PHASE_REPAIR_PLAN = "repair.plan"
PHASE_REPAIR_EXECUTE = "repair.execute"
PHASE_REPAIR_VERIFY = "repair.verify"

#: Every phase one repair pass records, in pipeline order.
REPAIR_PHASES = (
    PHASE_REPAIR_SCRUB,
    PHASE_REPAIR_PLAN,
    PHASE_REPAIR_EXECUTE,
    PHASE_REPAIR_VERIFY,
)

#: Repair actions executed, keyed by (action kind,).
REPAIR_ACTIONS = "repair.actions"
REPAIR_PARTICLES_SALVAGED = "repair.particles_salvaged"
REPAIR_PARTICLES_LOST = "repair.particles_lost"
REPAIR_FILES_QUARANTINED = "repair.files_quarantined"

# -- generation chain / compaction (see repro.format.generations,
# repro.core.compact) --------------------------------------------------------

PHASE_COMPACT_PLAN = "compact.plan"
PHASE_COMPACT_REWRITE = "compact.rewrite"
PHASE_COMPACT_GC = "compact.gc"

#: Every phase one compaction pass records, in pipeline order.
COMPACT_PHASES = (
    PHASE_COMPACT_PLAN,
    PHASE_COMPACT_REWRITE,
    PHASE_COMPACT_GC,
)

#: Small files merged into consolidated output, keyed by ().
COMPACT_FILES_MERGED = "compact.files_merged"
#: Files deleted by retention-driven GC, keyed by ().
COMPACT_FILES_GCED = "compact.files_gced"
#: Bytes reclaimed by GC, keyed by ().
COMPACT_BYTES_RECLAIMED = "compact.bytes_reclaimed"

#: Generation commits (CURRENT flips), keyed by ().
GEN_COMMITS = "generation.commits"
#: Resolutions that had to fall back past a damaged/dangling CURRENT,
#: keyed by ().
GEN_FALLBACKS = "generation.fallbacks"

# -- raw-speed read path (keyed by (path,); see repro.io.posix) --------------

#: Read calls served on a handle with a pooled mmap view.  The call's
#: ranges below the bulk threshold copy from the mapping; its bulk ranges
#: are read with ``preadv`` all the same (see :data:`IO_BULK_BYTES`).
IO_MMAP_HITS = "io.mmap_hit"
#: Read calls served on a handle without a mapping, through fd-based
#: ``pread``/``preadv`` (file too large for the mapping budget, empty
#: file, or mmap disabled).
IO_MMAP_MISSES = "io.mmap_miss"
#: Bytes of ranges (and whole files) at or above the bulk threshold, read
#: with ``pread``/``preadv`` straight into the result whether or not the
#: file is mapped; the same on every handle.
IO_BULK_BYTES = "io.bulk_bytes"
#: Read calls served by a handle reused from the backend's LRU pool: each
#: is an ``open`` not paid, and not counted in :data:`IO_OPENS`.
IO_HANDLE_REUSES = "io.handle_reuse"

# -- decode path (keyed by (path,); see repro.query.engine) ------------------

#: Coalesced runs/segment groups decoded as single vectorized passes
#: (one numpy frombuffer+reshape instead of a per-chunk Python loop).
DECODE_VECTORIZED_RUNS = "decode.vectorized_runs"

# -- executor (span; see repro.io.executor) ----------------------------------

#: One executor batch (span; args: tasks, workers, queue_depth, mode).
SPAN_EXECUTOR_RUN = "executor.run"

# -- block cache counters (keyed by (path,); see repro.io.cache) ------------

CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EVICT = "cache.evict"

# -- local-disk cache tier (keyed by (path,); see repro.io.diskcache) --------

CACHE_DISK_HIT = "cache.disk_hit"
CACHE_DISK_MISS = "cache.disk_miss"
CACHE_DISK_EVICT = "cache.disk_evict"

# -- remote object store (see repro.io.remote) -------------------------------

#: Requests issued to the remote transport, keyed by (op,):
#: "get", "get_ranges", "put", "head", "list", "delete".
REMOTE_REQUESTS = "remote.requests"
#: Payload bytes moved over the transport, keyed by (op,).
REMOTE_BYTES = "remote.bytes"
#: Accumulated request cost in micro-units (1e-6 of the configured cost
#: unit — integers keep counter sums exact), keyed by ().
REMOTE_COST_MICRO = "remote.cost_micro"
#: Simulated/observed seconds spent inside transport requests, keyed by ().
REMOTE_TIME = "remote.time"
#: Requests that exceeded their per-request timeout budget, keyed by ().
REMOTE_TIMEOUTS = "remote.timeouts"
#: Requests refused because the store was down (outage window), keyed by ().
REMOTE_UNAVAILABLE = "remote.unavailable"

# -- resilience layer (see repro.io.resilience) ------------------------------

#: Circuit-breaker state transitions, keyed by (to_state,):
#: "open", "half-open", "closed".
BREAKER_TRANSITIONS = "breaker.transitions"
#: Requests failed fast by an open breaker (no remote traffic), keyed by
#: (path,).
BREAKER_FAST_FAILS = "breaker.fast_fails"
#: Hedged (second) requests launched after the latency trigger, keyed by ().
HEDGE_LAUNCHED = "hedge.launched"
#: Hedges whose second request finished first, keyed by ().
HEDGE_WINS = "hedge.wins"
#: Hedges whose primary won anyway (the hedge was wasted cost), keyed by ().
HEDGE_WASTED = "hedge.wasted"
#: Operations shed because the deadline had already expired, keyed by ().
DEADLINE_SHED = "deadline.shed"

# -- serving layer (spans / counters; see repro.serve) ----------------------

#: One dispatched batch of admitted queries (span; args: width, queue_depth).
SPAN_SERVER_BATCH = "server.batch"

#: Queries admitted, keyed by (client,).
SERVER_QUERIES = "server.queries"
#: Admission rejections, keyed by (reason,): "closed", "queue-full",
#: "client-inflight", "client-bytes", "unknown-dataset", "deadline".
SERVER_REJECTED = "server.rejected"
#: Batches dispatched, keyed by ().
SERVER_BATCHES = "server.batches"
#: Sum of batch widths, keyed by () (divide by SERVER_BATCHES for the mean).
SERVER_BATCH_WIDTH = "server.batch_width"
#: Sum of queue depths sampled at each dispatch, keyed by ().
SERVER_QUEUE_DEPTH = "server.queue_depth"
#: Result bytes delivered, keyed by (client,).
SERVER_CLIENT_BYTES = "server.client_bytes"
#: Backend read ops avoided by cross-query staging, keyed by ().
SERVER_OPS_SAVED = "server.ops_saved"
#: Files pre-read once for multiple queries by the batch planner, keyed by ().
SERVER_STAGED_FILES = "server.staged_files"

# -- retry / fault counters -------------------------------------------------

IO_ATTEMPTS = "io.attempts"
IO_RETRIES = "io.retries"
IO_GIVEUPS = "io.giveups"
#: Injected/observed faults, keyed by (fault kind,).
IO_FAULTS = "io.faults"

# -- events -----------------------------------------------------------------

EV_RETRY = "io.retry"
EV_GIVEUP = "io.giveup"
EV_FAULT = "io.fault"
EV_PARTITION_READ = "read.partition"
EV_PARTITION_SKIPPED = "read.skip"
EV_CHUNK_SKIPPED = "read.chunk_skip"
EV_PREFIX_VERIFIED = "read.prefix_verified"
EV_REPAIR_ACTION = "repair.action"
EV_GENERATION_COMMIT = "generation.commit"
EV_CURRENT_FALLBACK = "generation.fallback"
EV_SERVER_REJECT = "server.reject"
#: Circuit-breaker state change (args: path, from, to, failures).
EV_BREAKER_STATE = "breaker.state"
#: A hedged second request was launched (args: path, op, waited_s).
EV_HEDGE = "hedge.launch"
#: An operation was shed because its deadline expired (args: path, op).
EV_DEADLINE_SHED = "deadline.shed_op"
