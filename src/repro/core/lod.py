"""Level-of-detail layout (paper §3.4).

The writer reorders each aggregator's particles so that any file prefix is a
valid coarse representation.  Two orderings are provided:

* ``random`` — the paper's default: a seeded uniform reshuffle.  Any prefix
  is then a uniform random subset of the region's particles.
* ``stratified`` — the "density" style heuristic the paper mentions: emit
  particles in rounds over an occupancy grid (one particle per occupied cell
  per round), so early prefixes cover space evenly even when density varies.

Level sizes are *dynamic*: a level is not baked into the file.  Level ``l``
contains at most ``x(n, l) = n * P * S**l`` particles, where ``n`` is the
number of processes *reading* (decided at read time), ``P`` the base level
size, and ``S`` the resolution scale (default 2).  The functions here do the
arithmetic both the reader and the benchmarks need: per-level sizes,
cumulative counts, the maximum level for a dataset, and per-file prefix
lengths for a cumulative target.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.domain.box import Box
from repro.domain.grid import CellGrid
from repro.errors import ConfigError
from repro.particles.batch import ParticleBatch
from repro.utils.rng import spawn_rng

# -- level arithmetic ---------------------------------------------------------


def _check_params(n: int, base: int, scale: int) -> None:
    if n < 1:
        raise ConfigError(f"reader count n must be >= 1, got {n}")
    if base < 1:
        raise ConfigError(f"LOD base P must be >= 1, got {base}")
    if scale < 2:
        raise ConfigError(f"LOD scale S must be >= 2, got {scale}")


def level_size(n: int, level: int, base: int = 32, scale: int = 2) -> int:
    """Maximum particles in level ``level``: ``x(n, l) = n * P * S**l``."""
    _check_params(n, base, scale)
    if level < 0:
        raise ConfigError(f"level must be >= 0, got {level}")
    return n * base * scale**level


def cumulative_level_count(
    n: int, upto_level: int, base: int = 32, scale: int = 2
) -> int:
    """Total particles in levels ``0..upto_level`` inclusive (geometric sum)."""
    _check_params(n, base, scale)
    if upto_level < 0:
        return 0
    return n * base * (scale ** (upto_level + 1) - 1) // (scale - 1)


def max_level(total: int, n: int, base: int = 32, scale: int = 2) -> int:
    """The highest level index with any particles for a ``total``-particle set.

    This matches the paper's formula ``l = log_S(total / (n * P))`` for the
    power-of-two cases it quotes (2^31 particles, n=64, P=32, S=2 -> 20) and
    generalises to non-exact totals as the smallest ``L`` whose cumulative
    count reaches ``total``.
    """
    _check_params(n, base, scale)
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    if total <= n * base:
        return 0
    level = 0
    while cumulative_level_count(n, level, base, scale) < total:
        level += 1
    return level


def paper_level_formula(total: int, n: int, base: int = 32, scale: int = 2) -> int:
    """The paper's closed form ``l = log_S(total / (n * P))`` (§5.4)."""
    _check_params(n, base, scale)
    if total < n * base:
        return 0
    return int(math.log(total / (n * base), scale))


def lod_prefix_counts(
    file_particle_counts: Sequence[int],
    n_readers: int,
    upto_level: int,
    base: int = 32,
    scale: int = 2,
) -> list[int]:
    """How many particles to read from each file for levels ``0..upto_level``.

    The cumulative global target ``C = min(sum(counts), n*P*(S^(L+1)-1)/(S-1))``
    is split across files in proportion to their particle counts (the shuffle
    makes any prefix representative), rounding by largest-remainder so the
    per-file counts sum exactly to ``C`` and never exceed a file's total.
    """
    counts = [int(c) for c in file_particle_counts]
    if any(c < 0 for c in counts):
        raise ConfigError(f"negative file particle count in {counts}")
    total = sum(counts)
    if total == 0:
        return [0] * len(counts)
    target = min(total, cumulative_level_count(n_readers, upto_level, base, scale))
    # Largest-remainder apportionment, capped by per-file totals.
    quotas = [target * c / total for c in counts]
    out = [min(int(q), c) for q, c in zip(quotas, counts, strict=True)]
    shortfall = target - sum(out)
    remainders = sorted(
        range(len(counts)),
        key=lambda i: (quotas[i] - int(quotas[i])),
        reverse=True,
    )
    i = 0
    while shortfall > 0 and i < 4 * len(counts) + 4:
        idx = remainders[i % len(counts)]
        if out[idx] < counts[idx]:
            out[idx] += 1
            shortfall -= 1
        i += 1
    return out


# -- orderings ------------------------------------------------------------------


def random_lod_order(
    batch: ParticleBatch, seed: int | None, agg_rank: int = 0
) -> np.ndarray:
    """The paper's default LOD ordering: a seeded uniform random permutation.

    Returns the index permutation (apply with ``batch.permuted``).  Seeding is
    per-aggregator (``agg_rank`` keys the stream) so writes are reproducible
    yet files are independently shuffled.
    """
    rng = spawn_rng(seed, 0x10D, agg_rank)
    return rng.permutation(len(batch))


def stratified_lod_order(
    batch: ParticleBatch,
    seed: int | None = 0,
    agg_rank: int = 0,
    grid_dims: tuple[int, int, int] = (8, 8, 8),
    bounds: Box | None = None,
) -> np.ndarray:
    """Density-aware ordering: round-robin over an occupancy grid.

    Particles are binned into ``grid_dims`` cells over ``bounds`` (default:
    the batch's bounding box).  The permutation emits one particle per
    occupied cell per round (random within each cell), so a prefix of k
    particles covers every populated region with roughly equal sample
    density — a better coarse representation than a uniform shuffle when the
    distribution is highly non-uniform.
    """
    if len(batch) == 0:
        return np.empty(0, dtype=np.int64)
    if bounds is None:
        bounds = batch.bounding_box()
        # A degenerate box (all particles coplanar) still needs positive extent.
        if bounds.is_empty():
            bounds = bounds.expanded(1e-9)
    grid = CellGrid(bounds, grid_dims)
    cells = grid.flat_cell_of_points(batch.positions)
    rng = spawn_rng(seed, 0x57A, agg_rank)
    # Shuffle within cells, then interleave cell streams round-robin:
    # sort by (round_within_cell, cell) with a random tiebreak inside cells.
    jitter = rng.permutation(len(batch))
    order_in_cell = np.zeros(len(batch), dtype=np.int64)
    sorted_by_cell = np.lexsort((jitter, cells))
    cell_sorted = cells[sorted_by_cell]
    # Position of each particle within its cell's (shuffled) stream.
    boundaries = np.flatnonzero(np.diff(cell_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [len(batch)])))
    order_in_cell[sorted_by_cell] = np.arange(len(batch)) - np.repeat(starts, lengths)
    return np.lexsort((cells, order_in_cell))


def _axis_sorters(coords: np.ndarray, itype: type[np.signedinteger]) -> np.ndarray:
    """Per axis, the particles in ascending coordinate order, flattened.

    ``coords`` is ``(3, n)``; the indices come back as ``itype``.  Equal
    coordinates keep input order (the stable order); the unstable sort is
    used whenever it already gives that order, i.e. whenever the sorted
    coordinates strictly increase.
    """
    n = coords.shape[1]
    out = np.empty((3, n), dtype=itype)
    for a in range(3):
        s = coords[a].argsort()
        v = coords[a].take(s)
        if not (v[1:] > v[:-1]).all():
            s = coords[a].argsort(kind="stable")
        out[a] = s
    return out.ravel()


def chunk_cluster_order(
    positions: np.ndarray,
    boundaries: Sequence[int],
    chunk_size: int,
    seed: int | None = 0,
    agg_rank: int = 0,
) -> np.ndarray:
    """Regroup each LOD level into spatially tight, randomly ordered chunks.

    The sub-file chunk index (:mod:`repro.format.chunks`) records the tight
    bounding box of each run of ``chunk_size`` consecutive particles; under
    a plain LOD shuffle every such run samples the whole partition, so no
    chunk can ever be pruned.  This permutation of ``positions`` (``(n,
    3)``, in LOD order) fixes that while keeping the LOD contract: within
    each level segment (``boundaries`` are the cumulative level counts,
    ending at ``n``) particles are clustered into ``chunk_size`` spatial
    groups by balanced k-d splits — tight bounds — and then the *full*
    clusters are emitted in seeded-random order (any remainder cluster
    stays last, so clusters stay aligned with the index's chunk grid).

    The k-d tree is built level-synchronously: every segment is a root,
    and each pass splits all live nodes of one depth at once.  A node is
    live while it holds more than ``chunk_size`` particles; it is sorted
    along its widest axis and cut after ``max(chunk_size, (len // 2 //
    chunk_size) * chunk_size)`` particles, a ``chunk_size`` multiple, so
    only the right-most leaf of a segment can be short.  Leaves come out in
    depth-first order and keep the order of their parent's split axis; a
    segment that never splits keeps its input order.  Ties: equal
    coordinates order by input position, and equal extents pick the lower
    axis (x, then y, then z), so the result is a pure function of the
    positions and the seed.

    Level *sets* are untouched — only within-level order changes — so every
    level-boundary prefix holds exactly the particles it held before, and a
    partial-level prefix is a random sample of spatial clusters rather than
    a random sample of particles: coarser-grained, but still spread over
    the whole region.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    coords = np.ascontiguousarray(np.asarray(positions, dtype=np.float64).T)
    n = coords.shape[1]
    ends = np.asarray(boundaries, dtype=np.int64)
    seg_start = np.concatenate(([0], ends[:-1])).astype(np.int64)
    seg_len = ends - seg_start
    if (n > 0 and (len(ends) == 0 or ends[-1] != n)) or (seg_len < 0).any():
        raise ConfigError(
            f"LOD boundaries must rise to the particle count {n}, got {list(boundaries)}"
        )
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Every index below stays under live_nodes * 3n (keys) or 3n: int32
    # halves the bytes each pass gathers and sorts whenever that allows.
    itype = np.int32 if 3 * n * (n // (chunk_size + 1) + 1) < 2**31 else np.int64
    # sorter[a * n + r] is the particle of rank r along axis a; rank inverts
    # it with a * n folded in, so both index the same flat (axis, rank) space.
    sorter = _axis_sorters(coords, itype)
    rank = np.empty(3 * n, dtype=itype)
    for lo in range(0, 3 * n, n):
        rank[lo : lo + n][sorter[lo : lo + n]] = np.arange(lo, lo + n, dtype=itype)
    perm = np.arange(n, dtype=itype)
    live = seg_len > chunk_size
    start, length = seg_start[live], seg_len[live]
    while len(start):
        # The live nodes' slots of perm, node after node.  Once a geometric
        # LOD layout's small levels are done its live nodes tile one span,
        # and a slice stands in for the gathered slot list.
        offs = np.cumsum(length) - length
        total = int(offs[-1] + length[-1])
        lo = int(start[0])
        if int(start[-1] + length[-1]) - lo == total:
            slot: slice | np.ndarray = slice(lo, lo + total)
        else:
            slot = np.arange(total) - np.repeat(offs - start, length)
        members = perm[slot]
        p = coords.take(members, axis=1)
        extent = np.maximum.reduceat(p, offs, axis=1)
        extent -= np.minimum.reduceat(p, offs, axis=1)
        node_base = np.repeat(
            np.arange(0, len(start) * 3 * n, 3 * n, dtype=itype), length
        )
        # One sort orders every node along its own axis: keys are unique and
        # grouped by node, and each decodes straight to its particle.
        key = np.repeat((extent.argmax(axis=0) * n).astype(itype), length)
        key += members
        key = rank.take(key)
        key += node_base
        key.sort()
        key -= node_base
        perm[slot] = sorter.take(key)
        nleft = np.maximum(chunk_size, (length // 2 // chunk_size) * chunk_size)
        start = np.stack((start, start + nleft), axis=1).ravel()
        length = np.stack((nleft, length - nleft), axis=1).ravel()
        live = length > chunk_size
        start, length = start[live], length[live]
    # Full leaves tile each segment from its start; shuffle them per segment.
    rng = spawn_rng(seed, 0xC4C, agg_rank)
    out = perm.astype(np.int64)
    lane = np.arange(chunk_size)
    for s, ln in zip(seg_start.tolist(), seg_len.tolist(), strict=True):
        full = ln // chunk_size
        shuffled = rng.permutation(full)[:, None] * chunk_size + lane
        out[s : s + full * chunk_size] = perm.take(s + shuffled.ravel())
    return out


def order_for_heuristic(
    batch: ParticleBatch,
    heuristic: str,
    seed: int | None,
    agg_rank: int,
    bounds: Box | None = None,
) -> np.ndarray:
    """Dispatch on the configured LOD heuristic name."""
    if heuristic == "random":
        return random_lod_order(batch, seed, agg_rank)
    if heuristic == "stratified":
        return stratified_lod_order(batch, seed, agg_rank, bounds=bounds)
    raise ConfigError(f"unknown LOD heuristic {heuristic!r}")
