"""LOD arithmetic and ordering tests (paper §3.4, §5.4)."""

import numpy as np
import pytest

from repro.core.lod import (
    cumulative_level_count,
    level_size,
    lod_prefix_counts,
    max_level,
    order_for_heuristic,
    paper_level_formula,
    random_lod_order,
    stratified_lod_order,
)
from repro.domain import Box, CellGrid
from repro.errors import ConfigError
from repro.particles import ParticleBatch, clustered_particles, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE
from repro.utils.rng import spawn_rng


def _stratified_per_cell_loop(batch, seed, agg_rank, bounds, grid_dims=(8, 8, 8)):
    """Frozen reference: ``stratified_lod_order`` as it was written with a
    Python loop building each occupied cell's ``arange``."""
    if bounds is None:
        bounds = batch.bounding_box()
        if bounds.is_empty():
            bounds = bounds.expanded(1e-9)
    cells = CellGrid(bounds, grid_dims).flat_cell_of_points(batch.positions)
    jitter = spawn_rng(seed, 0x57A, agg_rank).permutation(len(batch))
    order_in_cell = np.zeros(len(batch), dtype=np.int64)
    sorted_by_cell = np.lexsort((jitter, cells))
    boundaries = np.flatnonzero(np.diff(cells[sorted_by_cell])) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [len(batch)])))
    order_in_cell[sorted_by_cell] = np.concatenate([np.arange(ln) for ln in lengths])
    return np.lexsort((cells, order_in_cell))


class TestLevelArithmetic:
    def test_paper_example_levels(self):
        # §3.4: 100 particles, n=1, P=32, S=2 -> levels of 32, 64, then 4.
        assert level_size(1, 0) == 32
        assert level_size(1, 1) == 64
        assert cumulative_level_count(1, 1) == 96
        assert max_level(100, 1) == 2

    def test_paper_big_example(self):
        # §5.4: 2^31 particles, n=64, P=32, S=2 -> l = 20.
        assert paper_level_formula(2**31, 64) == 20
        assert max_level(2**31, 64) == 20

    def test_level_size_formula(self):
        # x(n, l) = n * P * S^l
        assert level_size(4, 3, base=10, scale=3) == 4 * 10 * 27

    def test_cumulative_is_geometric_sum(self):
        total = sum(level_size(2, l, 8, 2) for l in range(5))
        assert cumulative_level_count(2, 4, 8, 2) == total

    def test_cumulative_negative_level(self):
        assert cumulative_level_count(1, -1) == 0

    def test_max_level_small_total(self):
        assert max_level(10, 4, base=32) == 0

    def test_max_level_is_minimal(self):
        lvl = max_level(10_000, 2, 16, 2)
        assert cumulative_level_count(2, lvl, 16, 2) >= 10_000
        assert cumulative_level_count(2, lvl - 1, 16, 2) < 10_000

    def test_scale_3(self):
        assert level_size(1, 2, base=5, scale=3) == 45
        assert cumulative_level_count(1, 2, 5, 3) == 5 + 15 + 45

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_n(self, bad):
        with pytest.raises(ConfigError):
            level_size(bad, 0)

    def test_invalid_level(self):
        with pytest.raises(ConfigError):
            level_size(1, -1)

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            cumulative_level_count(1, 0, scale=1)


class TestPrefixCounts:
    def test_sums_to_target(self):
        counts = [100, 200, 300, 400]
        prefixes = lod_prefix_counts(counts, n_readers=2, upto_level=2, base=16)
        # target = 2 * 16 * (1 + 2 + 4) = 224
        assert sum(prefixes) == 224
        assert all(0 <= p <= c for p, c in zip(prefixes, counts))

    def test_proportional_allocation(self):
        prefixes = lod_prefix_counts([100, 300], 1, 1, base=50)
        # target 150, split 1:3 -> ~37 / ~113
        assert sum(prefixes) == 150
        assert prefixes[0] < prefixes[1]

    def test_full_read_when_target_exceeds(self):
        counts = [50, 50]
        prefixes = lod_prefix_counts(counts, 4, 10, base=32)
        assert prefixes == [50, 50]

    def test_all_empty(self):
        assert lod_prefix_counts([0, 0], 1, 3) == [0, 0]

    def test_some_empty_files(self):
        prefixes = lod_prefix_counts([0, 100, 0], 1, 0, base=10)
        assert prefixes[0] == 0 and prefixes[2] == 0
        assert prefixes[1] == 10

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            lod_prefix_counts([-1], 1, 0)

    def test_monotone_in_level(self):
        counts = [123, 456, 789]
        prev = [0, 0, 0]
        for level in range(12):
            cur = lod_prefix_counts(counts, 2, level, base=8)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur
        assert prev == counts  # eventually everything


class TestRandomOrder:
    @pytest.fixture
    def batch(self):
        return uniform_particles(Box([0, 0, 0], [1, 1, 1]), 500, dtype=MINIMAL_DTYPE, seed=0)

    def test_is_permutation(self, batch):
        order = random_lod_order(batch, seed=1)
        assert sorted(order.tolist()) == list(range(500))

    def test_deterministic(self, batch):
        assert np.array_equal(random_lod_order(batch, 1, 3), random_lod_order(batch, 1, 3))

    def test_agg_rank_varies_stream(self, batch):
        a = random_lod_order(batch, 1, agg_rank=0)
        b = random_lod_order(batch, 1, agg_rank=1)
        assert not np.array_equal(a, b)

    def test_actually_shuffles(self, batch):
        order = random_lod_order(batch, seed=2)
        assert not np.array_equal(order, np.arange(500))

    def test_empty_batch(self):
        empty = ParticleBatch.empty(MINIMAL_DTYPE)
        assert len(random_lod_order(empty, 0)) == 0

    def test_prefix_is_spatially_representative(self, batch):
        """A shuffled prefix should cover the domain, not one corner."""
        order = random_lod_order(batch, seed=3)
        prefix = batch.permuted(order)[0:100]
        grid = CellGrid(Box([0, 0, 0], [1, 1, 1]), (2, 2, 2))
        cells = np.unique(grid.flat_cell_of_points(prefix.positions))
        assert len(cells) == 8  # every octant sampled


class TestStratifiedOrder:
    def test_is_permutation(self):
        b = clustered_particles(Box([0, 0, 0], [1, 1, 1]), 400, dtype=MINIMAL_DTYPE, seed=1)
        order = stratified_lod_order(b, seed=0)
        assert sorted(order.tolist()) == list(range(400))

    def test_empty_batch(self):
        assert len(stratified_lod_order(ParticleBatch.empty(MINIMAL_DTYPE))) == 0

    def test_better_coverage_than_random_on_clusters(self):
        """Stratified prefixes cover occupied cells faster than random ones."""
        domain = Box([0, 0, 0], [1, 1, 1])
        b = clustered_particles(domain, 2000, num_clusters=6, spread=0.02,
                                dtype=MINIMAL_DTYPE, seed=5)
        grid = CellGrid(domain, (8, 8, 8))
        occupied = set(np.unique(grid.flat_cell_of_points(b.positions)).tolist())

        def covered(order, k):
            prefix = b.permuted(order)[0:k]
            return len(set(np.unique(grid.flat_cell_of_points(prefix.positions)).tolist()))

        k = max(16, len(occupied) // 2)
        strat = covered(stratified_lod_order(b, seed=0, bounds=domain), k)
        rand = covered(random_lod_order(b, seed=0), k)
        assert strat >= rand

    def test_first_round_hits_every_occupied_cell(self):
        domain = Box([0, 0, 0], [1, 1, 1])
        b = clustered_particles(domain, 1000, dtype=MINIMAL_DTYPE, seed=2)
        grid_dims = (4, 4, 4)
        grid = CellGrid(domain, grid_dims)
        occupied = np.unique(grid.flat_cell_of_points(b.positions))
        order = stratified_lod_order(b, seed=0, grid_dims=grid_dims, bounds=domain)
        prefix = b.permuted(order)[0 : len(occupied)]
        seen = np.unique(grid.flat_cell_of_points(prefix.positions))
        assert np.array_equal(seen, occupied)

    @pytest.mark.parametrize("kind", ["uniform", "clustered"])
    @pytest.mark.parametrize("n", [1, 7, 1000, 20_000])
    def test_matches_per_cell_loop_form(self, kind, n):
        """Vectorised in-cell positions give the old per-cell-loop permutation."""
        domain = Box([0, 0, 0], [1, 1, 1])
        make = uniform_particles if kind == "uniform" else clustered_particles
        b = make(domain, n, dtype=MINIMAL_DTYPE, seed=n)
        for bounds in (None, domain):
            new = stratified_lod_order(b, seed=3, agg_rank=2, bounds=bounds)
            old = _stratified_per_cell_loop(b, seed=3, agg_rank=2, bounds=bounds)
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)

    def test_dispatch(self):
        b = uniform_particles(Box([0, 0, 0], [1, 1, 1]), 50, dtype=MINIMAL_DTYPE, seed=0)
        assert sorted(order_for_heuristic(b, "random", 0, 0).tolist()) == list(range(50))
        assert sorted(order_for_heuristic(b, "stratified", 0, 0).tolist()) == list(range(50))
        with pytest.raises(ConfigError):
            order_for_heuristic(b, "sorted", 0, 0)
