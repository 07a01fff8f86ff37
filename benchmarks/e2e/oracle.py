"""Brute-force numpy reference answers, and the per-op check that feeds ``fail_ratio``.

The driver keeps every generated particle and computes, once per distinct op
at set-up, what the library must hand back: a result length and a checksum.
Workers report ``(op index, length, checksum)`` for every op they execute —
computed from the result *outside* the timed span — and :func:`count_failures`
compares.  A mismatch, an exception, an admission reject or a round that does
not answer within :data:`ROUND_TIMEOUT_S` is a failed op.

The checksum is the sum of a float64 column's 64-bit patterns mod 2**64 —
of ``id`` where the result carries it, of ``density`` where a projection
dropped ``id`` (``columnar_select``).  Columns are stored losslessly, so the
bit patterns must survive every layout and codec unchanged.
"""

from __future__ import annotations

import numpy as np

#: A worker that has not answered a round within this many seconds is killed
#: and the round's ops are counted as failed, instead of hanging the run.
ROUND_TIMEOUT_S = 120.0

#: The writer's LOD parameters ``P`` and ``S`` (``WriterConfig`` defaults).
LOD_BASE = 32
LOD_SCALE = 2


def checksum(column: np.ndarray) -> int:
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    return int(bits.sum(dtype=np.uint64))


def checksum_field(names: tuple[str, ...]) -> str:
    return "id" if "id" in names else "density"


def result_signature(data: np.ndarray) -> tuple[int, int]:
    """``(length, checksum)`` of a query result's structured array."""
    return len(data), checksum(data[checksum_field(data.dtype.names)])


def lod_prefix_count(total: int, max_level: int, readers: int = 1) -> int:
    """The paper's own count: ``min(total, sum_{l<=L} n * P * S**l)``."""
    levels = sum(readers * LOD_BASE * LOD_SCALE**lvl for lvl in range(max_level + 1))
    return min(total, levels)


class Oracle:
    """Everything that was written, as flat columns, one entry per generation."""

    def __init__(self, generations: list[np.ndarray]):
        self.generations = generations
        data = generations[0]
        # Separate contiguous columns: the filter below touches x for every
        # particle and y, z, attributes only for the survivors.
        self._xyz = [np.ascontiguousarray(data["position"][:, a]) for a in range(3)]
        self._data = data

    @property
    def total(self) -> int:
        return len(self._data)

    def select(
        self,
        lo,
        hi,
        where: dict[str, tuple[float, float]] | None = None,
    ) -> np.ndarray:
        """Indices of particles in the closed box (and value ranges)."""
        x = self._xyz[0]
        idx = np.flatnonzero((x >= lo[0]) & (x <= hi[0]))
        for axis in (1, 2):
            v = self._xyz[axis][idx]
            idx = idx[(v >= lo[axis]) & (v <= hi[axis])]
        for name, (vlo, vhi) in (where or {}).items():
            v = self._data[name][idx]
            idx = idx[(v >= vlo) & (v <= vhi)]
        return idx

    def box(self, lo, hi, where=None, field: str = "id") -> tuple[int, int]:
        idx = self.select(lo, hi, where)
        return len(idx), checksum(self._data[field][idx])

    def full(self) -> tuple[int, int]:
        return self.total, checksum(self._data["id"])

    def prefix(self, ids: np.ndarray, max_level: int) -> tuple[int, int]:
        """Validate one LOD-prefix answer and return the signature every
        later op must repeat.

        Which particles form the prefix is the writer's shuffle, so it is not
        re-derived: the count must be the paper's, and the ids a
        duplicate-free subset of what was written.
        """
        want = lod_prefix_count(self.total, max_level)
        if len(ids) != want:
            raise AssertionError(f"LOD prefix has {len(ids)} particles, expected {want}")
        if len(np.unique(ids)) != len(ids):
            raise AssertionError("LOD prefix repeats a particle id")
        if not np.isin(ids, self._data["id"]).all():
            raise AssertionError("LOD prefix holds an id that was never written")
        return len(ids), checksum(ids)

    def appended(self) -> list[tuple[int, int]]:
        """Signature of the union of generations ``0..g``, for each ``g``."""
        out, n, total = [], 0, 0
        for gen in self.generations:
            n += len(gen)
            total = (total + checksum(gen["id"])) % 2**64
            out.append((n, total))
        return out


def count_failures(
    expected: list[tuple[int, int]], reported: list[list]
) -> int:
    """Ops whose reported ``[op index, length, checksum]`` is not the oracle's
    (``length`` is ``None`` when the op raised or was refused)."""
    return sum(
        1
        for index, n, cs in reported
        if n is None or (n, cs) != tuple(expected[index])
    )
