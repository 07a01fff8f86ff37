"""Phase breakdowns.

The paper's Figure 6 reports the split between "data aggregation" and
"file I/O" time.  :class:`TimeBreakdown` accumulates named phases (measured
in place or recorded directly from the performance model) and can render
the percentage split.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class TimeBreakdown:
    """Accumulated time per named phase (seconds)."""

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative phase time {seconds!r} for {phase!r}")
        self.phases[phase] = self.phases.get(phase, 0.0) + float(seconds)

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - t0)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fraction(self, phase: str) -> float:
        """Fraction of total time spent in ``phase`` (0 if nothing recorded)."""
        total = self.total
        if total == 0.0:
            return 0.0
        return self.phases.get(phase, 0.0) / total

    def merged(self, other: "TimeBreakdown") -> "TimeBreakdown":
        out = TimeBreakdown(dict(self.phases))
        for phase, seconds in other.phases.items():
            out.add(phase, seconds)
        return out

    def __str__(self) -> str:
        total = self.total
        if total == 0.0:
            return "<empty breakdown>"
        parts = [
            f"{name}: {seconds:.4f}s ({100.0 * seconds / total:.1f}%)"
            for name, seconds in sorted(self.phases.items())
        ]
        return ", ".join(parts)
