"""Message envelope and payload copy semantics for the simulated MPI.

MPI send semantics allow the sender to reuse its buffer as soon as the send
completes, so the simulator must snapshot payloads at send time.  NumPy
arrays are copied as opaque records
(:func:`~repro.particles.batch.as_records`): a structured particle record is
one ``np.void`` of its itemsize, so the snapshot is a memcpy per row rather
than numpy's field-by-field copy; object arrays, whose elements are
references, keep ``ndarray.copy()``.  Every other object is round-tripped
through pickle, which both isolates the receiver from later sender-side
mutation and gives an honest wire-size estimate for the traffic statistics.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from itertools import count
from typing import Any

import numpy as np

from repro.particles.batch import as_records

# Channels separate user point-to-point traffic from internal collective
# traffic so a collective can never match a user recv and vice versa.
CHANNEL_P2P = 0
CHANNEL_COLL = 1

_seq = count()


def snapshot_payload(payload: Any) -> tuple[Any, int]:
    """Return an isolated copy of ``payload`` and its size in bytes.

    NumPy arrays take the fast path; tuples/lists/dicts whose leaves are all
    arrays still go through pickle (correct, just slower), which is fine for
    the metadata-sized objects the library sends that way.
    """
    if isinstance(payload, np.ndarray):
        return as_records(payload).copy().view(payload.dtype), int(payload.nbytes)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob)


@dataclass
class Message:
    """A message in flight: envelope (source, tag, channel) plus payload."""

    source: int
    dest: int
    tag: int
    channel: int
    payload: Any
    nbytes: int
    seq: int = field(default_factory=lambda: next(_seq))

    def matches(self, source: int, tag: int, channel: int) -> bool:
        """Envelope matching with MPI wildcard rules.

        ``source``/``tag`` may be the wildcards ``ANY_SOURCE``/``ANY_TAG``
        (-1); the channel never has a wildcard.
        """
        if self.channel != channel:
            return False
        if source != -1 and self.source != source:
            return False
        if tag != -1 and self.tag != tag:
            return False
        return True
