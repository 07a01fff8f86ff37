"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class.  Subsystems add narrower categories: the simulated
MPI runtime, the file format, configuration validation, and query evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError, ValueError):
    """A user-supplied configuration value is invalid or inconsistent."""


class DomainError(ReproError, ValueError):
    """A geometric object (box, grid, decomposition) is malformed."""


class MPIError(ReproError, RuntimeError):
    """Base class for simulated-MPI failures."""


class DeadlockError(MPIError):
    """The deadlock watchdog determined that no rank can make progress."""


class RankFailedError(MPIError):
    """One or more simulated ranks raised; carries the per-rank exceptions."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(
            f"{len(self.failures)} rank(s) failed (ranks {ranks}); "
            f"first failure: {first!r}"
        )


class CommMismatchError(MPIError):
    """A collective was called with inconsistent arguments across ranks."""


class FormatError(ReproError, ValueError):
    """An on-disk structure (data file, metadata table, manifest) is corrupt."""


class ChecksumError(FormatError):
    """A stored checksum does not match the bytes it covers.

    Distinguished from the structural :class:`FormatError` cases because the
    *structure* parsed fine — the payload was silently corrupted (bit-flip,
    torn write that preserved the header, media error).  Scrubbing reports
    these separately: a checksum failure means the data is unrecoverable from
    this replica, not merely incomplete.
    """


class MetadataError(FormatError):
    """The spatial metadata table is missing, truncated, or inconsistent."""


class DataFileError(FormatError):
    """A particle data file is missing, truncated, or inconsistent."""


class MetadataChecksumError(MetadataError, ChecksumError):
    """The spatial metadata table's stored checksum does not match."""


class DataChecksumError(DataFileError, ChecksumError):
    """A particle data file's stored checksum does not match."""


class QueryError(ReproError, ValueError):
    """A spatial or attribute query is malformed."""


class BackendError(ReproError, OSError):
    """A storage backend operation failed."""


class TransientBackendError(BackendError):
    """A backend operation failed in a way that is expected to heal.

    Raised (or wrapped) for conditions a retry can fix: a flaky network
    mount, a storage target briefly over capacity, an injected test fault.
    :class:`~repro.io.retry.RetryPolicy` retries exactly this class; plain
    :class:`BackendError` is treated as permanent and propagates immediately.
    """


class RemoteUnavailableError(TransientBackendError):
    """The remote object store refused or dropped a request (outage).

    Transient by classification — a retry or a hedge *may* succeed — but
    repeated occurrences are what trips the circuit breaker in
    :mod:`repro.io.resilience` from hammering a dead store.
    """


class RequestTimeoutError(TransientBackendError):
    """One remote request exceeded its per-request timeout budget.

    Distinct from :class:`DeadlineExceededError`: the *request* ran out of
    time (retry/hedge may still meet the query's deadline), not the query.
    """


class DeadlineExceededError(BackendError):
    """The operation's end-to-end deadline expired.

    Deliberately **not** transient: once a query's deadline has passed,
    retrying cannot help, so :class:`~repro.io.retry.RetryPolicy` lets it
    propagate immediately and degraded reads record the partition as shed.
    """


class BreakerOpenError(BackendError):
    """The per-path circuit breaker is open; the request failed fast.

    Raised without touching the remote store.  Not transient — the breaker
    itself decides when to probe again (half-open), so retrying through an
    open breaker would only burn the caller's deadline budget.
    """


class ServiceError(ReproError, RuntimeError):
    """The serving layer failed, was misconfigured, or was used after close."""


class AdmissionError(ServiceError):
    """A query was refused admission by the serving layer.

    Carries the rejection ``reason`` the service counted under the
    ``server.rejected`` counter: the service is closed, the pending queue
    is full, or the client exhausted an inflight/byte quota.  Admission
    control sheds load at the door — an admitted query is always run.
    """

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(detail)

