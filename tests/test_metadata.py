"""Spatial metadata table tests (the Fig. 4 structure)."""

import numpy as np
import pytest

from repro.domain import Box
from repro.errors import MetadataError
from repro.format.metadata import MetadataRecord, SpatialMetadata
from repro.io import VirtualBackend


def quad_records(with_attrs=False):
    """The paper's Fig. 4 example: 4 partitions of the unit square slab."""
    boxes = [
        Box([0.0, 0.0, 0.0], [0.5, 0.5, 1.0]),
        Box([0.5, 0.0, 0.0], [1.0, 0.5, 1.0]),
        Box([0.0, 0.5, 0.0], [0.5, 1.0, 1.0]),
        Box([0.5, 0.5, 0.0], [1.0, 1.0, 1.0]),
    ]
    attrs = {"density": (0.5, 2.0)} if with_attrs else {}
    return [
        MetadataRecord(i, i * 4, 100 + i, boxes[i], dict(attrs))
        for i in range(4)
    ]


class TestFig4Structure:
    def test_agg_ranks_match_paper_example(self):
        # 16 processes, 4 partitions -> aggregators 0, 4, 8, 12 (Fig. 4).
        table = SpatialMetadata(quad_records())
        assert [r.agg_rank for r in table] == [0, 4, 8, 12]

    def test_file_names_derive_from_agg_rank(self):
        table = SpatialMetadata(quad_records())
        assert [r.file_path for r in table] == [
            "data/file_0.pbin",
            "data/file_4.pbin",
            "data/file_8.pbin",
            "data/file_12.pbin",
        ]

    def test_total_particles(self):
        assert SpatialMetadata(quad_records()).total_particles == 406

    def test_domain_is_bounding_box(self):
        table = SpatialMetadata(quad_records())
        assert table.domain() == Box([0, 0, 0], [1, 1, 1])


class TestValidation:
    def test_duplicate_box_id_rejected(self):
        recs = quad_records()
        recs[1].box_id = 0
        with pytest.raises(MetadataError, match="duplicate box id"):
            SpatialMetadata(recs)

    def test_duplicate_agg_rank_rejected(self):
        recs = quad_records()
        recs[1].agg_rank = 0
        with pytest.raises(MetadataError, match="duplicate aggregator"):
            SpatialMetadata(recs)

    def test_overlapping_bounds_rejected(self):
        recs = quad_records()
        recs[1].bounds = Box([0.25, 0.0, 0.0], [1.0, 0.5, 1.0])
        with pytest.raises(MetadataError, match="overlap"):
            SpatialMetadata(recs)

    def test_face_touching_bounds_allowed(self):
        SpatialMetadata(quad_records())  # shared faces everywhere

    def test_large_disjoint_table_checked_in_one_broadcast(self, monkeypatch):
        """1 024 face-touching cells validate without a per-pair call."""

        def no_pairwise(self, other):
            raise AssertionError("per-pair Box.intersects call")

        monkeypatch.setattr(Box, "intersects", no_pairwise)
        recs = [
            MetadataRecord(
                i, i, 1, Box([i % 32, i // 32, 0], [i % 32 + 1, i // 32 + 1, 1]), {}
            )
            for i in range(1024)
        ]
        assert len(SpatialMetadata(recs)) == 1024

    def test_first_overlapping_pair_is_reported(self):
        """The lowest i, then the lowest j, names the overlap."""
        recs = quad_records()
        recs[2].bounds = Box([0.0, 0.25, 0.0], [1.0, 1.0, 1.0])  # hits 0, 1, 3
        recs[3].bounds = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])  # hits all
        with pytest.raises(MetadataError) as exc:
            SpatialMetadata(recs)
        assert str(exc.value) == (
            f"bounding boxes of files 0 and 8 overlap ({recs[0].bounds} vs "
            f"{recs[2].bounds}) — the aggregation grid guarantees disjoint regions"
        )

    def test_matches_the_pairwise_loop(self):
        """The broadcast check names the same first pair as the per-pair
        Box.intersects loop it replaced, over random small tables that mix
        two generations (which may overlap each other)."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            lo = rng.integers(0, 4, size=(n, 3))
            hi = lo + rng.integers(1, 3, size=(n, 3))
            gens = rng.integers(0, 2, size=n)
            recs = [
                MetadataRecord(i, i, 1, Box(lo[i], hi[i]), {}, gen=int(gens[i]))
                for i in range(n)
            ]
            want = next(
                (
                    f"files {a.agg_rank} and {b.agg_rank} overlap"
                    for i, a in enumerate(recs)
                    for b in recs[i + 1 :]
                    if a.gen == b.gen and a.bounds.intersects(b.bounds)
                ),
                None,
            )
            if want is None:
                SpatialMetadata(recs)
            else:
                with pytest.raises(MetadataError, match=want):
                    SpatialMetadata(recs)

    def test_missing_attr_range_rejected(self):
        recs = quad_records(with_attrs=True)
        del recs[2].attr_ranges["density"]
        with pytest.raises(MetadataError, match="missing attr"):
            SpatialMetadata(recs, attr_names=("density",))

    def test_empty_domain_raises(self):
        with pytest.raises(MetadataError):
            SpatialMetadata([]).domain()


class TestQueries:
    def test_files_intersecting_single_quadrant(self):
        table = SpatialMetadata(quad_records())
        hits = table.files_intersecting(Box([0.1, 0.1, 0.1], [0.4, 0.4, 0.9]))
        assert [r.box_id for r in hits] == [0]

    def test_files_intersecting_spanning(self):
        table = SpatialMetadata(quad_records())
        hits = table.files_intersecting(Box([0.25, 0.25, 0], [0.75, 0.75, 1]))
        assert len(hits) == 4

    def test_files_intersecting_outside(self):
        table = SpatialMetadata(quad_records())
        assert table.files_intersecting(Box([2, 2, 2], [3, 3, 3])) == []

    def test_attr_range_query(self):
        recs = quad_records(with_attrs=True)
        recs[0].attr_ranges["density"] = (5.0, 9.0)
        table = SpatialMetadata(recs, attr_names=("density",))
        hits = table.files_in_attr_range("density", 4.0, 6.0)
        assert [r.box_id for r in hits] == [0]

    def test_attr_range_unindexed_raises(self):
        table = SpatialMetadata(quad_records())
        with pytest.raises(MetadataError):
            table.files_in_attr_range("pressure", 0, 1)


class TestSerialization:
    def test_roundtrip(self):
        table = SpatialMetadata(quad_records())
        again = SpatialMetadata.from_bytes(table.to_bytes())
        assert len(again) == 4
        for a, b in zip(table, again):
            assert a.box_id == b.box_id
            assert a.agg_rank == b.agg_rank
            assert a.particle_count == b.particle_count
            assert a.bounds == b.bounds

    def test_roundtrip_with_attrs(self):
        table = SpatialMetadata(quad_records(with_attrs=True), attr_names=("density",))
        again = SpatialMetadata.from_bytes(table.to_bytes())
        assert again.attr_names == ("density",)
        assert again.records[0].attr_ranges["density"] == (0.5, 2.0)

    def test_backend_roundtrip(self):
        vb = VirtualBackend()
        table = SpatialMetadata(quad_records())
        table.write(vb)
        assert len(SpatialMetadata.read(vb)) == 4

    def test_missing_file(self):
        with pytest.raises(MetadataError, match="cannot read"):
            SpatialMetadata.read(VirtualBackend())

    def test_bad_magic(self):
        with pytest.raises(MetadataError, match="magic"):
            SpatialMetadata.from_bytes(b"WRONGMAG" + bytes(20))

    def test_truncated_header(self):
        with pytest.raises(MetadataError, match="truncated"):
            SpatialMetadata.from_bytes(b"SPIO")

    def test_truncated_records(self):
        # v3 tables catch truncation via the footer checksum before the
        # structural record walk ever runs.
        blob = SpatialMetadata(quad_records()).to_bytes()
        with pytest.raises(MetadataError, match="footer|CRC32"):
            SpatialMetadata.from_bytes(blob[:-10])

    def test_truncated_records_legacy_v2(self):
        # A version-2 table (no footer) still relies on the structural check.
        import struct

        blob = bytearray(SpatialMetadata(quad_records()).to_bytes()[:-8])
        struct.pack_into("<I", blob, 8, 2)  # rewrite version field to 2
        with pytest.raises(MetadataError, match="truncated at record"):
            SpatialMetadata.from_bytes(bytes(blob[:-10]))

    def test_trailing_garbage(self):
        blob = SpatialMetadata(quad_records()).to_bytes()
        with pytest.raises(MetadataError, match="footer|CRC32|trailing"):
            SpatialMetadata.from_bytes(blob + b"xx")

    def test_bit_flip_caught_by_table_checksum(self):
        from repro.errors import MetadataChecksumError

        blob = bytearray(SpatialMetadata(quad_records()).to_bytes())
        blob[40] ^= 0x10  # flip a bit inside the first record
        with pytest.raises(MetadataChecksumError):
            SpatialMetadata.from_bytes(bytes(blob))

    def test_truncated_attr_names(self):
        blob = SpatialMetadata(
            quad_records(with_attrs=True), attr_names=("density",)
        ).to_bytes()
        with pytest.raises(MetadataError):
            SpatialMetadata.from_bytes(blob[:24])
