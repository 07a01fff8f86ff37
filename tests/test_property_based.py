"""Property-based tests (hypothesis) on the core invariants.

The invariants the whole system rests on:

* box/grid geometry: tiling partitions points exactly;
* exchange: conservation — every particle lands in exactly one partition;
* LOD: orderings are permutations, level arithmetic is exact, prefix
  allocations never exceed file sizes and sum to the target;
* metadata: serialisation round-trips bit-exactly;
* box queries: metadata-pruned reads equal brute-force filtering;
* integrity: any single-byte corruption of a v2 data file is caught
  before particles are returned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lod import (
    cumulative_level_count,
    level_size,
    lod_prefix_counts,
    max_level,
    random_lod_order,
    stratified_lod_order,
)
from repro.domain import Box, CellGrid
from repro.format.metadata import MetadataRecord, SpatialMetadata
from repro.particles import ParticleBatch
from repro.particles.dtype import MINIMAL_DTYPE

# -- strategies ----------------------------------------------------------------

finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, min_extent=0.0):
    lo = np.array([draw(finite) for _ in range(3)])
    ext = np.array(
        [draw(st.floats(min_extent, 50, allow_nan=False)) for _ in range(3)]
    )
    return Box(lo, lo + ext)


@st.composite
def grids(draw):
    box = draw(boxes(min_extent=0.5))
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    return CellGrid(box, dims)


@st.composite
def points_in(draw, box, n_max=60):
    n = draw(st.integers(0, n_max))
    u = draw(
        st.lists(
            st.tuples(
                st.floats(0, 1, exclude_max=True),
                st.floats(0, 1, exclude_max=True),
                st.floats(0, 1, exclude_max=True),
            ),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    return box.lo + arr * box.extent


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_intersection_commutes(self, a, b):
        ia, ib = a.intersection(b), b.intersection(a)
        if ia is None:
            assert ib is None
        else:
            assert ia == ib
            assert a.contains_box(ia) and b.contains_box(ia)

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_box(a) and u.contains_box(b)

    @given(boxes(min_extent=0.01))
    def test_center_inside(self, box):
        assert box.contains_point(box.center)

    @given(boxes(), st.floats(0, 5, allow_nan=False))
    def test_expand_monotone(self, box, margin):
        assert box.expanded(margin).contains_box(box)


class TestGridProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_points_partitioned_exactly_once(self, data):
        grid = data.draw(grids())
        pts = data.draw(points_in(grid.domain))
        if len(pts) == 0:
            return
        flat = grid.flat_cell_of_points(pts)
        # Each point lies in its assigned cell (closed membership, because
        # lo + u*extent can round exactly onto the domain's top face even
        # for u < 1) and in no *other* cell under half-open semantics.
        for p, f in zip(pts, flat):
            assert grid.cell_box_flat(int(f)).contains_point(p, closed=True)
            owners = [
                c
                for c in range(grid.num_cells)
                if grid.cell_box_flat(c).contains_point(p)
            ]
            assert owners in ([int(f)], [])

    @settings(max_examples=30)
    @given(st.data())
    def test_cells_tile_volume(self, data):
        grid = data.draw(grids())
        total = sum(b.volume for b in grid.boxes())
        assert total == pytest.approx(grid.domain.volume, rel=1e-9)


class TestLodProperties:
    @given(
        st.integers(1, 64),
        st.integers(0, 12),
        st.integers(1, 100),
        st.integers(2, 5),
    )
    def test_cumulative_equals_sum_of_levels(self, n, upto, base, scale):
        assert cumulative_level_count(n, upto, base, scale) == sum(
            level_size(n, l, base, scale) for l in range(upto + 1)
        )

    @given(st.integers(0, 10**7), st.integers(1, 64), st.integers(1, 64))
    def test_max_level_covers_total(self, total, n, base):
        lvl = max_level(total, n, base, 2)
        assert cumulative_level_count(n, lvl, base, 2) >= total

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 5000), min_size=1, max_size=12),
        st.integers(1, 16),
        st.integers(0, 10),
    )
    def test_prefix_counts_valid(self, counts, n, level):
        prefixes = lod_prefix_counts(counts, n, level, base=8)
        assert len(prefixes) == len(counts)
        assert all(0 <= p <= c for p, c in zip(prefixes, counts))
        target = min(sum(counts), cumulative_level_count(n, level, 8, 2))
        assert sum(prefixes) == target

    @settings(max_examples=30)
    @given(st.integers(0, 400), st.integers(0, 2**31), st.booleans())
    def test_orders_are_permutations(self, n, seed, stratified):
        rng = np.random.default_rng(seed)
        arr = np.zeros(n, dtype=MINIMAL_DTYPE)
        arr["position"] = rng.random((n, 3))
        batch = ParticleBatch(arr)
        if stratified:
            order = stratified_lod_order(batch, seed=seed)
        else:
            order = random_lod_order(batch, seed=seed)
        assert sorted(order.tolist()) == list(range(n))


class TestMetadataProperties:
    @settings(max_examples=50)
    @given(
        st.integers(1, 12),
        st.booleans(),
        st.integers(0, 2**31),
    )
    def test_serialisation_roundtrip(self, n_files, with_attrs, seed):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n_files):
            lo = np.array([float(i), 0.0, 0.0])
            hi = lo + rng.uniform(0.1, 1.0, 3) * np.array([1.0, 1.0, 1.0])
            attrs = (
                {"density": tuple(sorted(rng.normal(0, 10, 2).tolist()))}
                if with_attrs
                else {}
            )
            records.append(
                MetadataRecord(i, i * 2, int(rng.integers(0, 10**6)), Box(lo, hi), attrs)
            )
        names = ("density",) if with_attrs else ()
        table = SpatialMetadata(records, attr_names=names)
        again = SpatialMetadata.from_bytes(table.to_bytes())
        assert len(again) == n_files
        for a, b in zip(table, again):
            assert a.box_id == b.box_id
            assert a.agg_rank == b.agg_rank
            assert a.particle_count == b.particle_count
            assert np.array_equal(a.bounds.lo, b.bounds.lo)
            assert np.array_equal(a.bounds.hi, b.bounds.hi)
            assert a.attr_ranges == b.attr_ranges


class TestCorruptionDetection:
    """Every byte of a v2 data file is covered by some check — the header by
    structural validation (and the footer CRC, which is seeded with the
    header), the payload and footer by the CRC itself.  So *any* single-byte
    corruption must surface as a FormatError before particles are returned,
    never as silently wrong data."""

    @pytest.fixture(scope="class")
    def data_file(self):
        from repro.format.datafile import write_data_file
        from repro.io import VirtualBackend

        rng = np.random.default_rng(42)
        arr = np.zeros(64, dtype=MINIMAL_DTYPE)
        arr["position"] = rng.random((64, 3))
        arr["id"] = np.arange(64)
        backend = VirtualBackend()
        write_data_file(backend, "data/f.pbin", ParticleBatch(arr))
        return backend.read_file("data/f.pbin")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_corruption_always_caught(self, data_file, data):
        from repro.errors import FormatError
        from repro.io import VirtualBackend
        from repro.baselines.reader import read_whole_file

        pos = data.draw(st.integers(0, len(data_file) - 1))
        xor = data.draw(st.integers(1, 255))
        corrupted = bytearray(data_file)
        corrupted[pos] ^= xor
        backend = VirtualBackend()
        backend.write_file("data/f.pbin", bytes(corrupted))
        with pytest.raises(FormatError):
            read_whole_file(backend, "data/f.pbin", MINIMAL_DTYPE)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_truncation_always_caught(self, data_file, data):
        from repro.errors import FormatError
        from repro.io import VirtualBackend
        from repro.baselines.reader import read_whole_file

        cut = data.draw(st.integers(0, len(data_file) - 1))
        backend = VirtualBackend()
        backend.write_file("data/f.pbin", data_file[:cut])
        with pytest.raises(FormatError):
            read_whole_file(backend, "data/f.pbin", MINIMAL_DTYPE)


class TestQueryEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.core import SpatialReader

        from tests.conftest import write_dataset

        backend, _, _ = write_dataset(
            nprocs=8, partition_factor=(2, 2, 1), particles_per_rank=250
        )
        reader = SpatialReader(backend)
        return reader, reader.read_full()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_box_query_equals_brute_force(self, dataset, data):
        reader, everything = dataset
        lo = np.array(
            [data.draw(st.floats(0, 0.9, allow_nan=False)) for _ in range(3)]
        )
        ext = np.array(
            [data.draw(st.floats(0.01, 1.0, allow_nan=False)) for _ in range(3)]
        )
        q = Box(lo, np.minimum(lo + ext, 1.0))
        hits = reader.read_box(q)
        brute = q.contains_points(everything.positions, closed=True)
        assert len(hits) == int(brute.sum())
        assert set(hits.data["id"].tolist()) == set(
            everything.data["id"][brute].tolist()
        )


# -- chunk selection -----------------------------------------------------------

# Corners on a small integer grid, so closed-interval touching (a chunk's
# face exactly on the query's) is drawn often rather than never.
grid_coord = st.integers(0, 6).map(float)


@st.composite
def grid_boxes(draw):
    lo = np.array([draw(grid_coord) for _ in range(3)])
    ext = np.array([draw(st.integers(0, 3)) for _ in range(3)], dtype=float)
    return Box(lo, lo + ext)


@st.composite
def chunk_indexes(draw, max_chunks=24):
    """A tiling chunk index with ragged counts, grid bounds and one indexed
    attribute ``a``."""
    from repro.format.chunks import FileChunkIndex

    n = draw(st.integers(0, max_chunks))
    counts = np.array(
        [draw(st.integers(1, 5)) for _ in range(n)], dtype=np.int64
    )
    bounds = [draw(grid_boxes()) for _ in range(n)]
    ranges = np.array(
        [
            [sorted((draw(grid_coord), draw(grid_coord)))]
            for _ in range(n)
        ],
        dtype=np.float64,
    ).reshape(n, 1, 2)
    return FileChunkIndex(
        np.cumsum(counts) - counts,
        counts,
        np.array([b.lo for b in bounds]).reshape(n, 3),
        np.array([b.hi for b in bounds]).reshape(n, 3),
        ranges,
        attr_names=("a",),
    )


def brute_force_selection(index, box, where) -> list[int]:
    """Per-chunk loop: closed bounds intersect and every *indexed* where
    range closed-intersects the chunk's recorded [min, max]."""
    selected = []
    for i in range(len(index)):
        hit = all(
            index.lo[i][a] <= box.hi[a] and box.lo[a] <= index.hi[i][a]
            for a in range(3)
        )
        for name, (lo, hi) in where.items():
            if name in index.attr_names:
                amin, amax = index.attr_ranges[i][index.attr_names.index(name)]
                hit = hit and amin <= hi and lo <= amax
        if hit:
            selected.append(i)
    return selected


def check_runs(index, runs, selected) -> None:
    """``runs`` cover exactly the ``selected`` chunks' particles, ascending,
    maximal (no two runs touch) and summed once in ``total``."""
    pairs = list(runs)
    wanted = {
        p
        for i in selected
        for p in range(index.starts[i], index.starts[i] + index.counts[i])
    }
    covered = [p for start, count in pairs for p in range(start, start + count)]
    assert len(covered) == len(set(covered)) and set(covered) == wanted
    assert all(count > 0 for _start, count in pairs)
    for (start, count), (nxt, _n) in zip(pairs, pairs[1:]):
        assert start + count < nxt  # ascending, and a gap: else one run
    assert runs.total == sum(int(index.counts[i]) for i in selected)
    assert len(runs) == len(pairs)


class TestChunkSelection:
    @settings(max_examples=150, deadline=None)
    @given(
        chunk_indexes(),
        grid_boxes(),
        st.dictionaries(
            st.sampled_from(["a", "not_indexed"]),
            st.tuples(grid_coord, grid_coord).map(lambda t: tuple(sorted(t))),
        ),
    )
    def test_select_runs_equals_per_chunk_loop(self, index, box, where):
        check_runs(
            index,
            index.select_runs(box, where=where),
            brute_force_selection(index, box, where),
        )

    def _index(self, hits, with_attrs=True):
        """Unit-count-3 chunks; chunk i sits at x = i when hits[i] else far away."""
        from repro.format.chunks import FileChunkIndex

        n = len(hits)
        lo = np.array([[i if h else 100.0, 0, 0] for i, h in enumerate(hits)], float)
        counts = np.full(n, 3, dtype=np.int64)
        ranges = np.tile([[[0.0, 1.0]]], (n, 1, 1)) if with_attrs else None
        return FileChunkIndex(
            np.arange(n, dtype=np.int64) * 3, counts,
            lo.reshape(n, 3), lo.reshape(n, 3) + 0.5, ranges,
            attr_names=("a",) if with_attrs else (),
        )

    QUERY = Box([0, 0, 0], [50, 1, 1])

    def test_empty_index(self):
        runs = self._index([]).select_runs(self.QUERY)
        assert list(runs) == [] and runs.total == 0 and len(runs) == 0

    def test_nothing_selected(self):
        runs = self._index([False] * 4).select_runs(self.QUERY)
        assert list(runs) == [] and runs.total == 0

    def test_all_selected_is_one_run(self):
        assert self._index([True] * 7).select_runs(self.QUERY) == ((0, 21),)

    def test_alternating_chunks_never_merge(self):
        runs = self._index([True, False] * 4).select_runs(self.QUERY)
        assert runs == tuple((6 * i, 3) for i in range(4))
        assert runs.total == 12

    def test_where_on_non_indexed_attribute_prunes_nothing(self):
        for index in (self._index([True] * 3), self._index([True] * 3, False)):
            runs = index.select_runs(self.QUERY, where={"other": (5.0, 6.0)})
            assert runs == ((0, 9),)

    def test_where_on_indexed_attribute_prunes(self):
        index = self._index([True] * 3)
        assert index.select_runs(self.QUERY, where={"a": (1.0, 2.0)}) == ((0, 9),)
        assert list(index.select_runs(self.QUERY, where={"a": (1.5, 2.0)})) == []
