"""``chunk_cluster_order``: step 6's regrouping of LOD levels into k-d chunks.

Two recursive references, one ``_kd`` call per k-d node:

* ``frozen`` is the implementation the level-synchronous one replaced, with
  one ``argpartition`` per node.  Absent coordinate ties both must put
  exactly the same particles into every chunk, in the same chunk order.
  Chunks are compared as *sets*: the order inside a recursive leaf is
  whatever numpy's partition left there.
* ``tie_rule`` sorts each node by (coordinate, input position) instead: the
  documented split and tie rule, so the output must equal it exactly,
  within chunks and under ties too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lod import chunk_cluster_order
from repro.errors import ConfigError
from repro.format.datafile import prefix_checksum_boundaries
from repro.utils.rng import spawn_rng

# -- the recursive references ----------------------------------------------------


def _frozen(x, idx, nleft):
    return np.argpartition(x, nleft - 1)


def _tie_rule(x, idx, nleft):
    return np.lexsort((idx, x))


def _kd(idx, pos, chunk_size, split):
    if len(idx) <= chunk_size:
        return [idx]
    p = pos[idx]
    axis = int((p.max(axis=0) - p.min(axis=0)).argmax())
    nleft = max(chunk_size, (len(idx) // 2 // chunk_size) * chunk_size)
    part = split(p[:, axis], idx, nleft)
    left = _kd(idx[part[:nleft]], pos, chunk_size, split)
    return left + _kd(idx[part[nleft:]], pos, chunk_size, split)


def reference_order(pos, boundaries, chunk_size, seed=0, agg_rank=0, split=_frozen):
    pos = np.asarray(pos, dtype=np.float64)
    rng = spawn_rng(seed, 0xC4C, agg_rank)
    out = np.empty(len(pos), dtype=np.int64)
    prev = 0
    for b in boundaries:
        clusters = _kd(np.arange(prev, b, dtype=np.int64), pos, chunk_size, split)
        full = [c for c in clusters if len(c) == chunk_size]
        rest = [c for c in clusters if len(c) != chunk_size]
        # Full clusters are exactly chunk_size; one short remainder at most.
        assert len(rest) <= 1 and all(len(c) < chunk_size for c in rest)
        pieces = [full[i] for i in rng.permutation(len(full))] + rest
        out[prev:b] = np.concatenate(pieces)
        prev = b
    return out


# -- helpers ---------------------------------------------------------------------


def segments(boundaries):
    return list(zip([0, *boundaries[:-1]], boundaries, strict=True))


def chunk_runs(order, boundaries, chunk_size):
    """The index's chunk grid: ``chunk_size`` runs from each segment start."""
    return [
        order[s : min(s + chunk_size, b)]
        for lo, b in segments(boundaries)
        for s in range(lo, b, chunk_size)
    ]


def assert_layout(order, boundaries, chunk_size):
    """Permutation, level sets unchanged, unsplit segments in input order."""
    assert order.dtype == np.int64
    assert np.array_equal(np.sort(order), np.arange(len(order)))
    for lo, b in segments(boundaries):
        assert np.array_equal(np.sort(order[lo:b]), np.arange(lo, b))
        if b - lo <= chunk_size:
            assert np.array_equal(order[lo:b], np.arange(lo, b))


def assert_same_chunks(order, ref, boundaries, chunk_size):
    """Grid run ``i`` of ``order`` holds the particles of the reference's
    cluster ``i``: its full clusters in the same shuffled order, then the
    remainder last."""
    runs = chunk_runs(order, boundaries, chunk_size)
    ref_runs = chunk_runs(ref, boundaries, chunk_size)
    assert len(runs) == len(ref_runs)
    for run, ref_run in zip(runs, ref_runs, strict=True):
        assert np.array_equal(np.sort(run), np.sort(ref_run))


def lod_boundaries(n):
    return prefix_checksum_boundaries(n, 32, 2)


# -- agreement with the references -----------------------------------------------


@given(
    lengths=st.lists(st.integers(0, 300), min_size=1, max_size=6),
    chunk_size=st.sampled_from([1, 2, 3, 7, 64]),
    data_seed=st.integers(0, 2**32 - 1),
    lod_seed=st.integers(0, 1000),
    agg_rank=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_matches_recursive_references(lengths, chunk_size, data_seed, lod_seed, agg_rank):
    """Any segment shapes — empty, shorter than a chunk, remainders that are
    not a power of two — and chunk sizes down to one particle."""
    boundaries = np.cumsum(lengths).tolist()
    pos = np.random.default_rng(data_seed).random((boundaries[-1], 3))
    order = chunk_cluster_order(pos, boundaries, chunk_size, seed=lod_seed, agg_rank=agg_rank)
    assert_layout(order, boundaries, chunk_size)
    frozen = reference_order(pos, boundaries, chunk_size, lod_seed, agg_rank)
    assert_same_chunks(order, frozen, boundaries, chunk_size)
    tie_rule = reference_order(pos, boundaries, chunk_size, lod_seed, agg_rank, _tie_rule)
    assert np.array_equal(order, tie_rule)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 1000, 8192])
def test_lod_boundaries_match_reference(n):
    pos = np.random.default_rng(n).random((n, 3))
    boundaries = lod_boundaries(n)
    order = chunk_cluster_order(pos, boundaries, 64, seed=5, agg_rank=3)
    assert_layout(order, boundaries, 64)
    ref = reference_order(pos, boundaries, 64, seed=5, agg_rank=3)
    assert_same_chunks(order, ref, boundaries, 64)


def test_r_sized_aggregator_matches_reference():
    """One file of the R fixture: 122 000 particles, k-d trees ten levels deep."""
    n = 122_000
    pos = np.random.default_rng(122).random((n, 3)).astype(np.float32)
    boundaries = lod_boundaries(n)
    order = chunk_cluster_order(pos, boundaries, 64, seed=97, agg_rank=6)
    assert_layout(order, boundaries, 64)
    assert_same_chunks(order, reference_order(pos, boundaries, 64, 97, 6), boundaries, 64)


def test_chunks_are_spatially_tight():
    n = 4096
    pos = np.random.default_rng(0).random((n, 3))
    order = chunk_cluster_order(pos, [n], 64)

    def mean_volume(o):
        return np.mean([np.prod(np.ptp(pos[r], axis=0)) for r in chunk_runs(o, [n], 64)])

    assert mean_volume(order) < mean_volume(np.arange(n)) / 20


# -- ties ------------------------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 3, 64])
def test_all_particles_at_one_point(chunk_size):
    """Every extent is zero, so every node splits on x with ties in input
    order: the chunks are consecutive input runs, shuffled per segment."""
    n = 1000
    pos = np.full((n, 3), 0.25)
    boundaries = lod_boundaries(n)
    order = chunk_cluster_order(pos, boundaries, chunk_size, seed=1)
    assert np.array_equal(order, chunk_cluster_order(pos.copy(), boundaries, chunk_size, seed=1))
    assert_layout(order, boundaries, chunk_size)
    for run in chunk_runs(order, boundaries, chunk_size):
        assert np.array_equal(run, np.arange(run[0], run[0] + len(run)))
    tie_rule = reference_order(pos, boundaries, chunk_size, 1, 0, _tie_rule)
    assert np.array_equal(order, tie_rule)


@pytest.mark.parametrize("chunk_size", [2, 7, 64])
def test_duplicate_coordinates_on_the_split_axis(chunk_size):
    """x is the widest axis but takes three values, so the top cuts land
    inside runs of equal x; y and z repeat too."""
    n = 3000
    rng = np.random.default_rng(4)
    pos = np.column_stack(
        [rng.integers(0, 3, n) * 0.5, rng.integers(0, 5, n) * 0.02, rng.random(n) * 0.1]
    )
    boundaries = lod_boundaries(n)
    order = chunk_cluster_order(pos, boundaries, chunk_size, seed=2)
    assert np.array_equal(order, chunk_cluster_order(pos.copy(), boundaries, chunk_size, seed=2))
    assert_layout(order, boundaries, chunk_size)
    tie_rule = reference_order(pos, boundaries, chunk_size, 2, 0, _tie_rule)
    assert np.array_equal(order, tie_rule)


# -- arguments -------------------------------------------------------------------


def test_empty():
    order = chunk_cluster_order(np.empty((0, 3)), [], 64)
    assert order.dtype == np.int64 and len(order) == 0


@pytest.mark.parametrize("boundaries", [[], [5], [7, 12], [10, 8, 10], [-1, 10]], ids=str)
def test_boundaries_must_rise_to_the_count(boundaries):
    with pytest.raises(ConfigError):
        chunk_cluster_order(np.zeros((10, 3)), boundaries, 4)


def test_chunk_size_must_be_positive():
    with pytest.raises(ConfigError):
        chunk_cluster_order(np.zeros((10, 3)), [10], 0)
