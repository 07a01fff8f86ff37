"""Unit tests for ParticleBatch."""

import numpy as np
import pytest

from repro.domain import Box
from repro.particles import ParticleBatch, concatenate, uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE


@pytest.fixture
def batch():
    return uniform_particles(Box([0, 0, 0], [1, 1, 1]), 200, dtype=MINIMAL_DTYPE, seed=5)


class TestConstruction:
    def test_from_positions(self):
        pos = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        b = ParticleBatch.from_positions(pos, MINIMAL_DTYPE)
        assert len(b) == 2
        assert np.allclose(b.positions, pos)
        assert b.data["id"].tolist() == [0.0, 1.0]

    def test_from_positions_bad_shape(self):
        with pytest.raises(ValueError):
            ParticleBatch.from_positions(np.zeros((3, 2)), MINIMAL_DTYPE)

    def test_empty(self):
        b = ParticleBatch.empty(MINIMAL_DTYPE)
        assert len(b) == 0
        assert b.nbytes == 0

    def test_2d_data_rejected(self):
        with pytest.raises(ValueError):
            ParticleBatch(np.zeros((2, 2), dtype=MINIMAL_DTYPE))

    def test_unstructured_rejected(self):
        with pytest.raises(ValueError):
            ParticleBatch(np.zeros(4))


class TestProtocol:
    def test_len_nbytes(self, batch):
        assert len(batch) == 200
        assert batch.nbytes == 200 * 32

    def test_getitem_slice(self, batch):
        sub = batch[10:20]
        assert len(sub) == 10
        assert np.array_equal(sub.data, batch.data[10:20])

    def test_getitem_mask(self, batch):
        mask = batch.positions[:, 0] < 0.5
        assert len(batch[mask]) == int(mask.sum())

    def test_getitem_scalar_stays_batch(self, batch):
        sub = batch[0]
        assert isinstance(sub, ParticleBatch)
        assert len(sub) == 1

    def test_equality(self, batch):
        assert batch == batch.copy()
        assert batch != batch[0:10]

    def test_unhashable(self, batch):
        with pytest.raises(TypeError):
            hash(batch)


class TestGeometry:
    def test_bounding_box(self, batch):
        bb = batch.bounding_box()
        assert np.all(bb.lo >= 0) and np.all(bb.hi <= 1)
        assert bb.contains_points(batch.positions, closed=True).all()

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            ParticleBatch.empty(MINIMAL_DTYPE).bounding_box()

    def test_select_in_box(self, batch):
        box = Box([0, 0, 0], [0.5, 1, 1])
        sel = batch.select_in_box(box)
        assert (sel.positions[:, 0] < 0.5).all()
        outside = batch.mask_in_box(box)
        assert len(sel) == int(outside.sum())

    def test_bin_by_boxes_partitions_exactly(self, batch):
        boxes = [
            Box([0, 0, 0], [0.5, 1, 1]),
            Box([0.5, 0, 0], [1.0000001, 1.0000001, 1.0000001]),
        ]
        bins = batch.bin_by_boxes(boxes)
        assert sum(len(b) for b in bins) == len(batch)

    def test_bin_by_boxes_stray_raises(self, batch):
        with pytest.raises(ValueError, match="outside all"):
            batch.bin_by_boxes([Box([0, 0, 0], [0.5, 1, 1])])


class TestTransforms:
    def test_permuted_roundtrip(self, batch):
        rng = np.random.default_rng(0)
        order = rng.permutation(len(batch))
        permuted = batch.permuted(order)
        inverse = np.argsort(order)
        assert permuted.permuted(inverse) == batch

    def test_permuted_validates(self, batch):
        with pytest.raises(ValueError):
            batch.permuted(np.zeros(len(batch), dtype=int))

    @pytest.mark.parametrize(
        "order",
        [
            np.array([False, True]),  # a mask would silently drop a row
            np.array([True, True]),
            np.array([0.0, 1.0]),  # floats used to leak numpy's IndexError
            np.array([[0, 1]]),  # 2-D
            np.array([[0], [1]]),
            np.array([0]),  # short
            np.array([0, 1, 1]),  # long
            np.array([0, 2]),  # out of range
            np.array([-1, 0]),  # negative
            np.array([1, 1]),  # duplicate
            np.array([0, 1], dtype=object),
            np.array(["0", "1"]),
        ],
        ids=["bool-mask", "bool-all", "float", "2d-row", "2d-col", "short", "long",
             "out-of-range", "negative", "duplicate", "object", "str"],
    )
    def test_permuted_rejects_non_permutations(self, order):
        two = ParticleBatch.from_positions(np.zeros((2, 3)), MINIMAL_DTYPE)
        with pytest.raises(ValueError):
            two.permuted(order)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint16, np.uint64])
    def test_permuted_accepts_any_integer_dtype(self, batch, dtype):
        order = np.random.default_rng(1).permutation(len(batch))
        assert batch.permuted(order.astype(dtype)) == batch.permuted(order)

    def test_permuted_rejects_out_of_range_unsigned(self):
        two = ParticleBatch.from_positions(np.zeros((2, 3)), MINIMAL_DTYPE)
        with pytest.raises(ValueError):
            two.permuted(np.array([0, 2], dtype=np.uint64))

    def test_permuted_gathers_rows(self, batch):
        order = np.random.default_rng(2).permutation(len(batch))
        assert np.array_equal(batch.permuted(order).data, batch.data[order])

    def test_permuted_empty_batch(self):
        empty = ParticleBatch.empty(MINIMAL_DTYPE)
        assert len(empty.permuted(np.empty(0, dtype=np.int64))) == 0
        with pytest.raises(ValueError):
            empty.permuted(np.array([0]))
        with pytest.raises(ValueError):
            empty.permuted(np.empty(0, dtype=bool))

    def test_bytes_roundtrip(self, batch):
        blob = batch.tobytes()
        again = ParticleBatch.frombuffer(blob, batch.dtype)
        assert again == batch

    def test_copy_is_deep(self, batch):
        c = batch.copy()
        c.data["id"][0] = -1
        assert batch.data["id"][0] != -1


class TestConcatenate:
    def test_basic(self, batch):
        joined = concatenate([batch[0:50], batch[50:200]])
        assert joined == batch

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concatenate([])

    def test_mixed_dtypes_rejected(self, batch):
        from repro.particles.dtype import UINTAH_DTYPE

        other = ParticleBatch.empty(UINTAH_DTYPE)
        with pytest.raises(ValueError):
            concatenate([batch, other])
