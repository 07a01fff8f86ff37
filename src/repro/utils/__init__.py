"""Small shared utilities: RNG handling, units, phase timing, and table printing."""

from repro.utils.rng import resolve_rng, spawn_rng
from repro.utils.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    TB,
    format_bytes,
    format_count,
    format_seconds,
    format_throughput,
)
from repro.utils.timing import TimeBreakdown
from repro.utils.tables import Table

__all__ = [
    "resolve_rng",
    "spawn_rng",
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "format_bytes",
    "format_count",
    "format_seconds",
    "format_throughput",
    "TimeBreakdown",
    "Table",
]
