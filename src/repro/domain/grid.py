"""Regular rectilinear cell grids over a domain box.

A :class:`CellGrid` partitions a :class:`~repro.domain.box.Box` into
``dims = (nx, ny, nz)`` equal axis-aligned cells.  Both the simulation's
patch decomposition and the paper's *aggregation-grid* are cell grids; the
aggregation-grid's cells are the *aggregation partitions*.

Cell assignment is computed by index arithmetic
(``floor((x - lo) / cell_extent)`` with clipping), not by per-box membership
tests, so points exactly on interior faces go to exactly one cell and points
on the domain's closing face land in the last cell instead of escaping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.domain.box import Box
from repro.errors import DomainError


class CellGrid:
    """``dims``-celled regular grid over ``domain``; cells indexed (i, j, k)."""

    __slots__ = ("domain", "dims", "cell_extent", "_axis_faces")

    def __init__(self, domain: Box, dims: Sequence[int]):
        dims_arr = tuple(int(d) for d in dims)
        if len(dims_arr) != 3 or any(d < 1 for d in dims_arr):
            raise DomainError(f"grid dims must be three positive ints, got {dims!r}")
        if domain.is_empty():
            raise DomainError(f"grid domain must have positive volume, got {domain}")
        self.domain = domain
        self.dims = dims_arr
        self.cell_extent = domain.extent / np.asarray(dims_arr, dtype=np.float64)
        # Interior face coordinates per axis, computed with the *same*
        # arithmetic as cell_box corners (lo + (i/dims) * extent), so point
        # assignment and box membership agree to the last ulp.
        self._axis_faces = tuple(
            domain.lo[a]
            + (np.arange(1, dims_arr[a], dtype=np.float64) / dims_arr[a])
            * domain.extent[a]
            for a in range(3)
        )

    # -- sizes ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def __len__(self) -> int:
        return self.num_cells

    # -- index arithmetic ----------------------------------------------------------

    def cell_of_points(self, points: np.ndarray) -> np.ndarray:
        """(N, 3) integer cell index of each point, clipped into the grid.

        Points must lie inside the (closed) domain; anything outside raises,
        because an I/O layer must never silently misfile data.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise DomainError(f"points must be (N, 3), got {points.shape}")
        if len(points):
            inside = self.domain.contains_points(points, closed=True)
            if not inside.all():
                bad = points[~inside][0]
                raise DomainError(
                    f"{int((~inside).sum())} point(s) outside grid domain "
                    f"{self.domain}; first: {bad}"
                )
        # searchsorted against the exact cell-face coordinates: a point on an
        # interior face goes to the upper cell (half-open), and a point on
        # the domain's closing face lands in the last cell.
        idx = np.empty((len(points), 3), dtype=np.int64)
        for a in range(3):
            idx[:, a] = np.searchsorted(self._axis_faces[a], points[:, a], side="right")
        return idx

    def flat_cell_of_points(self, points: np.ndarray) -> np.ndarray:
        """Flattened (x-major) cell id of each point."""
        return self.flatten_index(self.cell_of_points(points))

    def flatten_index(self, ijk: np.ndarray) -> np.ndarray:
        """Map (…, 3) integer indices to flat ids: ``i + nx*(j + ny*k)``.

        x-fastest ordering matches the paper's file-count formula
        ``f = (nx/Px) * (ny/Py) * (nz/Pz)`` walking x, then y, then z.
        """
        ijk = np.asarray(ijk)
        nx, ny, _nz = self.dims
        return ijk[..., 0] + nx * (ijk[..., 1] + ny * ijk[..., 2])

    def unflatten_index(self, flat: int) -> tuple[int, int, int]:
        nx, ny, nz = self.dims
        if not 0 <= flat < self.num_cells:
            raise DomainError(f"flat cell id {flat} out of range ({self.num_cells} cells)")
        i = flat % nx
        j = (flat // nx) % ny
        k = flat // (nx * ny)
        return (int(i), int(j), int(k))

    # -- geometry ----------------------------------------------------------------

    def cell_box(self, ijk: Sequence[int]) -> Box:
        """The axis-aligned box of cell (i, j, k).

        Corners are computed from the domain edges (not accumulated cell
        extents) so adjacent cells share bit-identical faces and the last
        cell's top face is exactly the domain's.
        """
        i, j, k = (int(v) for v in ijk)
        dims = self.dims
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise DomainError(f"cell index {(i, j, k)} out of range for dims {dims}")
        frac_lo = np.array([i, j, k], dtype=np.float64) / dims
        frac_hi = np.array([i + 1, j + 1, k + 1], dtype=np.float64) / dims
        lo = self.domain.lo + frac_lo * self.domain.extent
        hi = self.domain.lo + frac_hi * self.domain.extent
        return Box(lo, hi)

    def cell_box_flat(self, flat: int) -> Box:
        return self.cell_box(self.unflatten_index(flat))

    def boxes(self) -> list[Box]:
        """All cell boxes in flat order."""
        return [self.cell_box_flat(f) for f in range(self.num_cells)]

    def cells_intersecting(self, box: Box) -> list[int]:
        """Flat ids of cells whose volume overlaps ``box`` (fast index math)."""
        lo_idx = np.floor(
            (np.maximum(box.lo, self.domain.lo) - self.domain.lo) / self.cell_extent
        ).astype(int)
        hi_idx = np.ceil(
            (np.minimum(box.hi, self.domain.hi) - self.domain.lo) / self.cell_extent
        ).astype(int)
        lo_idx = np.clip(lo_idx, 0, np.asarray(self.dims) - 1)
        hi_idx = np.clip(hi_idx, 1, self.dims)
        out: list[int] = []
        for k in range(lo_idx[2], hi_idx[2]):
            for j in range(lo_idx[1], hi_idx[1]):
                for i in range(lo_idx[0], hi_idx[0]):
                    if self.cell_box((i, j, k)).intersects(box):
                        out.append(int(self.flatten_index(np.array([i, j, k]))))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellGrid):
            return NotImplemented
        return self.domain == other.domain and self.dims == other.dims

    def __hash__(self):
        return hash((self.domain, self.dims))

    def __repr__(self) -> str:
        return f"CellGrid(domain={self.domain}, dims={self.dims})"
