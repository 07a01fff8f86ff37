"""Multi-tenant query serving over the spatial format.

The "millions of users" layer: many concurrent clients, shared open
:class:`~repro.dataset.Dataset` facades, bounded concurrency, per-client
quotas — and the paper's aggregate-before-storage idea applied *across*
queries: plans that arrive within a small batching window have their
per-file chunk runs merged into one coalesced read pass per shared file,
and each query is answered from the shared buffers, bit-identical to
running it alone.

* :class:`~repro.serve.service.QueryService` — admission control,
  batching windows, worker dispatch, ``server.*`` observability;
* :func:`~repro.serve.batch.stage_plans` /
  :func:`~repro.serve.batch.execute_batch` — the deterministic batched
  planner underneath (directly testable, no threads).
"""

from repro.serve.batch import execute_batch, merge_runs, stage_plans
from repro.serve.service import ClientQuota, QueryService

__all__ = [
    "QueryService",
    "ClientQuota",
    "stage_plans",
    "execute_batch",
    "merge_runs",
]
