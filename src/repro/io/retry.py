"""Retry policy for storage operations.

Parallel filesystems fail transiently all the time — a brief network-mount
hiccup, an OST briefly over capacity, a metadata server failing over.  The
policy here retries exactly :class:`~repro.errors.TransientBackendError`;
anything else is treated as permanent and propagates on the first attempt.

Two properties matter for a reproducible test suite:

* **deterministic jitter** — backoff delays are fully determined by
  ``(seed, attempt)``, so two runs of the same fault plan sleep the same
  amounts and produce the same op streams;
* **injectable sleep** — tests pass ``sleep=lambda s: None`` and assert on
  the *requested* delays instead of wall-clock time.

Accounting routes through the unified instrumentation layer: pass a
:class:`~repro.obs.recorder.Recorder` to :meth:`RetryPolicy.call` and every
attempt/retry/giveup lands as ``io.*`` counters plus ``io.retry`` /
``io.giveup`` events, which is how the writer's and reader's retry numbers
reach exported traces.  :class:`RetryStats` remains as a small standalone
accumulator for direct policy use in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TransientBackendError
from repro.obs.names import (
    EV_GIVEUP,
    EV_RETRY,
    IO_ATTEMPTS,
    IO_GIVEUPS,
    IO_RETRIES,
)
from repro.obs.recorder import Recorder

__all__ = ["RetryPolicy", "RetryStats"]


def _no_sleep(_s: float) -> None:
    """The :meth:`RetryPolicy.immediate` sleep: record the request, never wait.

    A module-level function (not a lambda) so immediate policies stay
    picklable — the process executor ships the retry policy to workers.
    """


@dataclass
class RetryStats:
    """Mutable counters a policy fills in across one logical operation set."""

    attempts: int = 0
    retries: int = 0
    giveups: int = 0
    slept: float = 0.0

    def merge(self, other: "RetryStats") -> None:
        self.attempts += other.attempts
        self.retries += other.retries
        self.giveups += other.giveups
        self.slept += other.slept


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt ``a`` (0-based, i.e. the delay before
    retry ``a + 1``) is::

        backoff_base * backoff_factor**a * (1 + jitter * u(seed, a))

    where ``u`` is a deterministic value in ``[0, 1)`` derived from the seed
    and attempt with a Weyl-style integer hash — no global RNG state.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    #: Decorrelated jitter (the AWS architecture-blog recipe, made
    #: deterministic): each delay is drawn between ``backoff_base`` and
    #: ``3 * previous_delay``, which decorrelates concurrent retriers far
    #: better than scaled exponential backoff.  Off by default so existing
    #: call sites keep their exact historical delay sequences.
    decorrelated: bool = False
    #: Total *requested* sleep budget across one :meth:`call`.  A retry whose
    #: backoff would push the cumulative requested sleep past this cap gives
    #: up instead of sleeping — requested (not wall-clock) accounting keeps
    #: the decision deterministic under injected ``sleep``.  ``None`` = no cap.
    max_elapsed: float | None = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError(
                "backoff_base must be >= 0, backoff_factor >= 1, jitter >= 0"
            )
        if self.max_elapsed is not None and self.max_elapsed < 0:
            raise ValueError(
                f"max_elapsed must be >= 0 or None, got {self.max_elapsed}"
            )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt)."""
        return cls(max_attempts=1)

    @classmethod
    def immediate(cls, max_attempts: int = 3, seed: int = 0) -> "RetryPolicy":
        """Retries without sleeping — the test-suite default."""
        return cls(
            max_attempts=max_attempts,
            backoff_base=0.0,
            seed=seed,
            sleep=_no_sleep,
        )

    def delay(self, attempt: int, previous: float | None = None) -> float:
        """Backoff before retrying after 0-based failed ``attempt``.

        With :attr:`decorrelated` set, the delay also depends on the
        ``previous`` delay (pass the value this method returned last time;
        ``None`` for the first retry) — still fully determined by
        ``(seed, attempt, previous)``.
        """
        # Knuth multiplicative hash of (seed, attempt) -> [0, 1).
        h = ((self.seed * 40503 + attempt + 1) * 2654435761) & 0xFFFFFFFF
        unit = h / 2**32
        if self.decorrelated:
            low = self.backoff_base
            prev = previous if previous is not None and previous > 0 else low
            high = max(low, 3.0 * prev)
            return low + (high - low) * unit
        base = self.backoff_base * self.backoff_factor**attempt
        return base * (1.0 + self.jitter * unit)

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        stats: RetryStats | None = None,
        recorder: Recorder | None = None,
        on_retry: Callable[[int, TransientBackendError], None] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(*args, **kwargs)``, retrying transient backend failures.

        ``stats`` (if given) accumulates attempt/retry counters;
        ``recorder`` (if given) receives the same accounting as ``io.*``
        counters and retry/giveup events; ``on_retry`` is invoked with
        ``(attempt, error)`` before each backoff sleep.  Non-transient
        exceptions propagate immediately; a transient failure on the final
        attempt propagates as-is and counts as a giveup.

        Retrying stops early — the current transient error propagates and
        counts as a giveup — when the next backoff would overrun either
        :attr:`max_elapsed` (cumulative requested sleep) or the ambient
        :func:`~repro.io.resilience.current_deadline`'s remaining budget,
        so a retry loop can never sleep through the very deadline its
        caller is trying to meet.
        """
        requested = 0.0
        previous: float | None = None
        for attempt in range(self.max_attempts):
            if stats is not None:
                stats.attempts += 1
            if recorder is not None:
                recorder.add(IO_ATTEMPTS)
            try:
                return fn(*args, **kwargs)
            except TransientBackendError as exc:
                pause = self.delay(attempt, previous)
                if attempt + 1 >= self.max_attempts or self._over_budget(
                    requested + pause
                ):
                    if stats is not None:
                        stats.giveups += 1
                    if recorder is not None:
                        recorder.add(IO_GIVEUPS)
                        recorder.event(EV_GIVEUP, attempt=attempt, error=str(exc))
                    raise
                if stats is not None:
                    stats.retries += 1
                if recorder is not None:
                    recorder.add(IO_RETRIES)
                    recorder.event(EV_RETRY, attempt=attempt, error=str(exc))
                if on_retry is not None:
                    on_retry(attempt, exc)
                previous = pause
                requested += pause
                if stats is not None:
                    stats.slept += pause
                self.sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover

    def _over_budget(self, requested_total: float) -> bool:
        """Would sleeping up to ``requested_total`` break a budget?"""
        if self.max_elapsed is not None and requested_total > self.max_elapsed:
            return True
        # Lazy import: resilience depends on nothing here, but importing it
        # at module scope would make every retry user pay for the thread
        # machinery it pulls in.
        from repro.io.resilience import current_deadline

        deadline = current_deadline()
        return deadline is not None and requested_total > deadline.remaining()
