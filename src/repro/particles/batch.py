"""ParticleBatch: a structured array of particles with geometry helpers.

A batch is the unit the I/O pipeline moves around: a process's local
particles, a packet sent to an aggregator, an aggregator's assembled buffer,
or the result of a read.  It wraps a 1-D structured :class:`numpy.ndarray`
(zero-copy views wherever possible) and offers the spatial operations the
paper's aggregation and query paths need: bounding boxes, box containment
masks, and partition binning.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.domain.box import Box
from repro.particles.dtype import validate_particle_dtype


class ParticleBatch:
    """A 1-D structured array of particles.

    Parameters
    ----------
    data:
        Structured array whose dtype passes
        :func:`~repro.particles.dtype.validate_particle_dtype`.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 1:
            raise ValueError(f"particle data must be 1-D, got shape {data.shape}")
        validate_particle_dtype(data.dtype)
        self.data = data

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, dtype: np.dtype) -> ParticleBatch:
        return cls(np.empty(0, dtype=dtype))

    @classmethod
    def from_positions(
        cls, positions: np.ndarray, dtype: np.dtype, rng=None
    ) -> ParticleBatch:
        """Build a batch from an (N, 3) position array.

        Non-position fields are filled with zeros except ``id`` (sequential)
        — enough structure for tests and examples that only care about
        geometry.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        out = np.zeros(len(positions), dtype=dtype)
        out["position"] = positions
        if "id" in (dtype.names or ()):
            out["id"] = np.arange(len(positions), dtype=np.float64)
        return cls(out)

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key) -> ParticleBatch:
        return ParticleBatch(np.atleast_1d(self.data[key]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParticleBatch):
            return NotImplemented
        return self.data.dtype == other.data.dtype and bool(
            np.array_equal(self.data, other.data)
        )

    def __hash__(self):  # mutable container
        raise TypeError("ParticleBatch is unhashable")

    def __repr__(self) -> str:
        return f"ParticleBatch(n={len(self)}, dtype={self.data.dtype.names})"

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def positions(self) -> np.ndarray:
        """(N, 3) view of particle positions."""
        return self.data["position"]

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> Box:
        """Tight axis-aligned bounding box of the particle positions.

        Raises on an empty batch — an empty region has no box, and the
        aggregation code treats that case explicitly.
        """
        if len(self) == 0:
            raise ValueError("bounding_box() of an empty ParticleBatch")
        pos = self.positions
        return Box(pos.min(axis=0), pos.max(axis=0))

    def mask_in_box(self, box: Box) -> np.ndarray:
        """Boolean mask of particles inside ``box`` (lo-inclusive, hi-exclusive).

        Half-open on every axis so a set of tiling boxes partitions the
        particles with no duplicates and no losses — the invariant the whole
        aggregation scheme rests on.  Callers handling the domain's upper
        boundary close it explicitly (see ``Box.contains_points``).
        """
        return box.contains_points(self.positions)

    def select_in_box(self, box: Box) -> ParticleBatch:
        return ParticleBatch(self.data[self.mask_in_box(box)])

    def bin_by_boxes(self, boxes: Sequence[Box]) -> list[ParticleBatch]:
        """Split the batch into one sub-batch per box (the non-aligned path).

        This is the per-particle scan the paper describes for aggregation
        grids that do not align with the simulation decomposition: each
        particle is assigned to the first box containing it.  Boxes are
        expected to tile the particle extent; particles falling in no box
        raise, because silently dropping data is never acceptable in an I/O
        layer.
        """
        remaining = np.arange(len(self.data))
        out: list[ParticleBatch] = []
        pos = self.positions
        for box in boxes:
            if len(remaining) == 0:
                out.append(ParticleBatch(self.data[:0]))
                continue
            mask = box.contains_points(pos[remaining])
            out.append(ParticleBatch(self.data[remaining[mask]]))
            remaining = remaining[~mask]
        if len(remaining):
            stray = pos[remaining[0]]
            raise ValueError(
                f"{len(remaining)} particle(s) fall outside all {len(boxes)} "
                f"partition boxes; first stray position {stray}"
            )
        return out

    # -- transforms ----------------------------------------------------------------

    def permuted(self, order: np.ndarray) -> ParticleBatch:
        """A new batch with rows reordered by index array ``order``.

        ``order`` must be a 1-D integer array holding every index of
        ``range(len(self))`` exactly once.  Anything else — a boolean mask,
        floats, a wrong length, an out-of-range or repeated index — raises
        ``ValueError`` instead of dropping or duplicating rows.
        """
        order = np.asarray(order)
        n = len(self)
        if order.ndim != 1 or order.dtype.kind not in "iu" or len(order) != n:
            raise ValueError(
                f"order must be a 1-D integer array of length {n}, "
                f"got {order.dtype} of shape {order.shape}"
            )
        if n and (
            order.min() < 0
            or order.max() >= n
            or not (np.bincount(order.astype(np.intp, copy=False), minlength=n) == 1).all()
        ):
            raise ValueError("order must be a permutation of range(len(batch))")
        return ParticleBatch(self.data.take(order))

    def copy(self) -> ParticleBatch:
        return ParticleBatch(self.data.copy())

    def tobytes(self) -> bytes:
        return np.ascontiguousarray(self.data).tobytes()

    @classmethod
    def frombuffer(cls, buf: bytes, dtype: np.dtype) -> ParticleBatch:
        return cls(np.frombuffer(buf, dtype=dtype).copy())


def concatenate(batches: Iterable[ParticleBatch]) -> ParticleBatch:
    """Concatenate batches (all must share a dtype); empty input is an error."""
    batches = list(batches)
    if not batches:
        raise ValueError("concatenate() needs at least one batch")
    dtypes = {b.dtype for b in batches}
    if len(dtypes) > 1:
        raise ValueError(f"cannot concatenate mixed dtypes: {dtypes}")
    return ParticleBatch(np.concatenate([b.data for b in batches]))
