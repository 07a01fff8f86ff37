"""Axis-aligned 3D boxes.

Boxes are the vocabulary of the whole system: per-process patches,
aggregation partitions, bounding boxes in the spatial metadata file, and
read-side box queries are all :class:`Box` instances.

Membership is half-open (``lo <= x < hi``) so that a set of boxes tiling a
domain partitions its particles exactly — no particle is counted twice on a
shared face, and none is lost, which is the conservation invariant the
aggregation pipeline is property-tested against.  The one place half-open
semantics would drop data is the domain's upper boundary; callers that need
it closed pass ``closed=True`` (readers do, when a query touches the domain
edge).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import DomainError


class Box:
    """An axis-aligned box ``[lo, hi)`` in 3D."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo_arr = np.asarray(lo, dtype=np.float64).reshape(-1)
        hi_arr = np.asarray(hi, dtype=np.float64).reshape(-1)
        if lo_arr.shape != (3,) or hi_arr.shape != (3,):
            raise DomainError(
                f"Box corners must be 3-vectors, got lo={lo_arr.shape}, hi={hi_arr.shape}"
            )
        if not np.all(np.isfinite(lo_arr)) or not np.all(np.isfinite(hi_arr)):
            raise DomainError(f"Box corners must be finite, got {lo_arr}, {hi_arr}")
        if np.any(hi_arr < lo_arr):
            raise DomainError(f"Box needs hi >= lo on every axis: lo={lo_arr}, hi={hi_arr}")
        lo_arr.setflags(write=False)
        hi_arr.setflags(write=False)
        self.lo = lo_arr
        self.hi = hi_arr

    @classmethod
    def trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "Box":
        """A box over read-only float64 3-vectors the caller has already
        checked in bulk (finite, ``hi >= lo``), as the spatial table's head
        parse does for every record at once; skips the per-box checks."""
        box = object.__new__(cls)
        box.lo = lo
        box.hi = hi
        return box

    # -- basic properties -----------------------------------------------------

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    def is_empty(self) -> bool:
        """True if the box has zero measure on any axis."""
        return bool(np.any(self.hi <= self.lo))

    # -- point membership -------------------------------------------------------

    def contains_points(self, points: np.ndarray, closed: bool = False) -> np.ndarray:
        """Boolean mask: which of the (N, 3) ``points`` lie inside.

        ``closed=False`` (default): ``lo <= x < hi`` — the tiling semantics.
        ``closed=True``: ``lo <= x <= hi`` — used by read-side queries so a
        query box touching the domain's top face still matches edge particles.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != 3:
            raise DomainError(f"points must be (N, 3), got {points.shape}")
        # One comparison per axis, folded into one mask: a reduction over
        # the short axis of an (N, 3) temporary costs several times the
        # comparisons.  Positions strided through wider records (a result
        # array's ``position`` field) are gathered per axis once rather
        # than streamed through the cache six times.  The corners stay
        # 1-element arrays so a float32 column still compares in float64,
        # whichever scalar-promotion rule numpy applies.  Positions already
        # held one contiguous column per axis (a staged span) are compared
        # in place.
        columns = points.T
        if not points.flags.c_contiguous and columns.strides[-1] != columns.itemsize:
            columns = np.ascontiguousarray(columns)
        below = np.less_equal if closed else np.less
        mask = np.ones(len(points), dtype=bool)
        for column, lo, hi in zip(columns, self.lo[:, None], self.hi[:, None]):
            mask &= column >= lo
            mask &= below(column, hi)
        return mask

    def contains_point(self, point: Sequence[float], closed: bool = False) -> bool:
        return bool(self.contains_points(np.asarray(point, dtype=float)[None, :], closed)[0])

    # -- box/box relations --------------------------------------------------------

    def intersects(self, other: "Box") -> bool:
        """True if the boxes share any volume (open intersection test).

        Boxes that only touch on a face do *not* intersect under half-open
        semantics, which is exactly what the metadata-driven reader needs:
        a query strictly inside one partition never drags in its neighbours.
        """
        return bool(np.all(self.lo < other.hi) and np.all(other.lo < self.hi))

    def intersection(self, other: "Box") -> "Box | None":
        """The overlapping box, or None when disjoint."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(hi <= lo):
            return None
        return Box(lo, hi)

    def contains_box(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def union(self, other: "Box") -> "Box":
        """Smallest box covering both."""
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    @staticmethod
    def bounding(boxes: Iterable["Box"]) -> "Box":
        boxes = list(boxes)
        if not boxes:
            raise DomainError("Box.bounding() needs at least one box")
        lo = np.min([b.lo for b in boxes], axis=0)
        hi = np.max([b.hi for b in boxes], axis=0)
        return Box(lo, hi)

    def expanded(self, margin: float) -> "Box":
        """Box grown by ``margin`` on every face (negative shrinks)."""
        return Box(self.lo - margin, self.hi + margin)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        lo = ", ".join(f"{v:g}" for v in self.lo)
        hi = ", ".join(f"{v:g}" for v in self.hi)
        return f"Box([{lo}], [{hi}])"

    def almost_equal(self, other: "Box", tol: float = 1e-12) -> bool:
        return bool(
            np.allclose(self.lo, other.lo, atol=tol)
            and np.allclose(self.hi, other.hi, atol=tol)
        )
