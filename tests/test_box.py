"""Unit tests for repro.domain.box.Box."""

import numpy as np
import pytest

from repro.domain import Box
from repro.errors import DomainError


class TestConstruction:
    def test_basic(self):
        b = Box([0, 0, 0], [1, 2, 3])
        assert np.array_equal(b.lo, [0, 0, 0])
        assert np.array_equal(b.hi, [1, 2, 3])

    def test_extent_center_volume(self):
        b = Box([1, 1, 1], [3, 5, 2])
        assert np.array_equal(b.extent, [2, 4, 1])
        assert np.array_equal(b.center, [2, 3, 1.5])
        assert b.volume == pytest.approx(8.0)

    def test_degenerate_box_is_empty(self):
        b = Box([0, 0, 0], [1, 0, 1])
        assert b.is_empty()
        assert b.volume == 0.0

    def test_negative_extent_rejected(self):
        with pytest.raises(DomainError):
            Box([0, 0, 0], [-1, 1, 1])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            Box([0, 0], [1, 1])
        with pytest.raises(DomainError):
            Box([0, 0, 0, 0], [1, 1, 1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Box([0, 0, np.nan], [1, 1, 1])
        with pytest.raises(DomainError):
            Box([0, 0, 0], [1, 1, np.inf])

    def test_corners_immutable(self):
        b = Box([0, 0, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            b.lo[0] = 5.0


class TestMembership:
    def test_half_open_semantics(self):
        b = Box([0, 0, 0], [1, 1, 1])
        pts = np.array([[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], [1, 0, 0]])
        mask = b.contains_points(pts)
        assert mask.tolist() == [True, False, True, False]

    def test_closed_semantics(self):
        b = Box([0, 0, 0], [1, 1, 1])
        pts = np.array([[1, 1, 1], [1, 0.5, 0.5]])
        assert b.contains_points(pts, closed=True).tolist() == [True, True]

    @pytest.mark.parametrize("closed", [False, True])
    def test_strided_and_float32_points_match_the_reduction(self, closed):
        """Per-axis evaluation (on a record array's strided position field,
        or float32 coordinates) equals the all-axes reduction it replaced,
        compared in float64."""
        rng = np.random.default_rng(5)
        b = Box([0.1, 0.2, 0.3], [0.7, 0.8, 0.9000000001])
        records = np.zeros(500, dtype=[("position", "<f8", (3,)), ("pad", "<f4", (7,))])
        records["position"] = rng.random((500, 3)).round(1)  # many on a face
        single = records["position"].astype(np.float32)
        for pts in (records["position"], single, single[::-1]):
            wide = pts.astype(np.float64)
            below = (wide <= b.hi) if closed else (wide < b.hi)
            expect = np.all(wide >= b.lo, axis=1) & np.all(below, axis=1)
            got = b.contains_points(pts, closed=closed)
            assert got.dtype == bool and np.array_equal(got, expect)

    def test_contains_point_scalar(self):
        b = Box([0, 0, 0], [1, 1, 1])
        assert b.contains_point([0.5, 0.5, 0.5])
        assert not b.contains_point([1.5, 0.5, 0.5])
        assert not b.contains_point([1.0, 0.5, 0.5])
        assert b.contains_point([1.0, 0.5, 0.5], closed=True)

    def test_points_shape_validated(self):
        b = Box([0, 0, 0], [1, 1, 1])
        with pytest.raises(DomainError):
            b.contains_points(np.zeros((4, 2)))

    def test_empty_points(self):
        b = Box([0, 0, 0], [1, 1, 1])
        assert b.contains_points(np.zeros((0, 3))).shape == (0,)


class TestRelations:
    def test_intersects_overlapping(self):
        a = Box([0, 0, 0], [2, 2, 2])
        b = Box([1, 1, 1], [3, 3, 3])
        assert a.intersects(b) and b.intersects(a)

    def test_face_touching_does_not_intersect(self):
        a = Box([0, 0, 0], [1, 1, 1])
        b = Box([1, 0, 0], [2, 1, 1])
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_disjoint(self):
        a = Box([0, 0, 0], [1, 1, 1])
        b = Box([5, 5, 5], [6, 6, 6])
        assert not a.intersects(b)

    def test_intersection_box(self):
        a = Box([0, 0, 0], [2, 2, 2])
        b = Box([1, 1, 1], [3, 3, 3])
        i = a.intersection(b)
        assert i == Box([1, 1, 1], [2, 2, 2])

    def test_contains_box(self):
        outer = Box([0, 0, 0], [4, 4, 4])
        inner = Box([1, 1, 1], [2, 2, 2])
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.contains_box(outer)

    def test_union(self):
        a = Box([0, 0, 0], [1, 1, 1])
        b = Box([2, 2, 2], [3, 3, 3])
        assert a.union(b) == Box([0, 0, 0], [3, 3, 3])

    def test_bounding_of_many(self):
        boxes = [Box([i, 0, 0], [i + 1, 1, 1]) for i in range(4)]
        assert Box.bounding(boxes) == Box([0, 0, 0], [4, 1, 1])

    def test_bounding_empty_rejected(self):
        with pytest.raises(DomainError):
            Box.bounding([])

    def test_expanded(self):
        b = Box([0, 0, 0], [1, 1, 1]).expanded(0.5)
        assert b == Box([-0.5, -0.5, -0.5], [1.5, 1.5, 1.5])


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Box([0, 0, 0], [1, 1, 1])
        b = Box([0, 0, 0], [1, 1, 1])
        c = Box([0, 0, 0], [2, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_almost_equal(self):
        a = Box([0, 0, 0], [1, 1, 1])
        b = Box([0, 0, 0], [1 + 1e-15, 1, 1])
        assert a.almost_equal(b)
        assert not a.almost_equal(Box([0, 0, 0], [1.1, 1, 1]))

    def test_repr_roundtrips_visually(self):
        assert "Box" in repr(Box([0, 0, 0], [1, 1, 1]))
