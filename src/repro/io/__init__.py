"""Storage backends: where datasets' bytes actually live.

The interface (:class:`FileBackend`) has two read verbs: ``read_file`` for a
whole object and ``readv(path, request)`` for every ranged read, where a
:class:`ReadRequest` is one flattened offset–length list landing back to
back in caller-owned buffers; ``read_range`` and ``readinto`` are
base-class conveniences over ``readv`` (a one-range request) that no
backend overrides.  Three leaf backends implement it
(the third, :class:`RemoteBackend`, is described below):

* :class:`PosixBackend` — a directory on the real filesystem; used by the
  examples and the functional tests, so write→read cycles exercise real
  bytes on a real FS.
* :class:`VirtualBackend` — an in-memory filesystem that records every
  operation (creates, opens, writes, reads with offsets).  The recorded op
  stream is what the performance models replay against a machine's storage
  model, and what tests assert on ("the reader opened exactly one file").

Backends that delegate to another backend — :class:`PrefixBackend`,
:class:`FaultInjectingBackend`, :class:`CachingBackend`,
:class:`DiskCacheBackend`, :class:`ResilientBackend` — derive from
:class:`WrapperBackend`, which forwards every operation,
``attach_recorder`` and ``close``, so each overrides only what it changes.

Fault tolerance lives alongside the backends:

* :class:`FaultInjectingBackend` wraps any backend with a deterministic,
  seedable :class:`FaultPlan` (transient faults, torn writes, bit-flips,
  crash-after-K-writes) — the failure-matrix test harness;
* :class:`RetryPolicy` retries transient failures with deterministic
  exponential backoff; the writer and reader apply it on their hot paths.

Execution lives here too: :class:`IoExecutor` (and its
:class:`SerialExecutor` / :class:`ThreadedExecutor` implementations) runs
independent per-file operations — serially or on a bounded thread pool —
with deterministic result order and per-task child recorders.

The remote tier rounds out the picture: :class:`RemoteBackend` speaks the
same interface to a high-latency object store over a pluggable transport
(:class:`SimulatedTransport` with RTT/bandwidth/cost physics, or a
stdlib-only :class:`HttpTransport`); :class:`ResilientBackend` adds
deadlines, hedged requests, and a per-path circuit breaker; and
:class:`DiskCacheBackend` — :class:`CachingBackend` with its entries kept
in files — persists a crash-safe local cache tier so warm reads survive a
remote outage.  :func:`build_remote_stack` assembles the whole
composition.
"""

from repro.io.backend import FileBackend, IoOp, ReadRequest, WrapperBackend
from repro.io.cache import CachingBackend
from repro.io.diskcache import DiskCacheBackend
from repro.io.executor import (
    IoExecutor,
    ProcessExecutor,
    ProcessTask,
    SerialExecutor,
    TaskOutcome,
    ThreadedExecutor,
    executor_for,
)
from repro.io.faults import FaultInjectingBackend, FaultPlan, FaultSpec, InjectedCrashError
from repro.io.posix import PosixBackend
from repro.io.prefix import PrefixBackend
from repro.io.remote import (
    HttpTransport,
    OutagePlan,
    RemoteBackend,
    SimulatedTransport,
    Transport,
    TransportStats,
)
from repro.io.resilience import (
    CircuitBreaker,
    Deadline,
    Hedger,
    ResilientBackend,
    build_remote_stack,
    current_deadline,
    deadline_scope,
)
from repro.io.retry import RetryPolicy, RetryStats
from repro.io.virtual import VirtualBackend

__all__ = [
    "FileBackend",
    "WrapperBackend",
    "IoOp",
    "ReadRequest",
    "PosixBackend",
    "PrefixBackend",
    "VirtualBackend",
    "CachingBackend",
    "DiskCacheBackend",
    "FaultInjectingBackend",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "RetryPolicy",
    "RetryStats",
    "IoExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "ProcessTask",
    "TaskOutcome",
    "executor_for",
    "Transport",
    "TransportStats",
    "OutagePlan",
    "SimulatedTransport",
    "HttpTransport",
    "RemoteBackend",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "CircuitBreaker",
    "Hedger",
    "ResilientBackend",
    "build_remote_stack",
]
