"""Tests for the shared utilities (units, timing, tables, rng)."""

import time

import numpy as np
import pytest

from repro.utils import (
    GB,
    MB,
    Table,
    TimeBreakdown,
    format_bytes,
    format_count,
    format_seconds,
    format_throughput,
    resolve_rng,
    spawn_rng,
)


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(500) == "500 B"
        assert format_bytes(1_500_000) == "1.50 MB"
        assert format_bytes(98 * GB) == "98.00 GB"
        assert format_bytes(2.131e12) == "2.13 TB"

    def test_format_throughput(self):
        assert format_throughput(98 * GB) == "98.00 GB/s"

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.500 s"
        assert format_seconds(0.033) == "33.00 ms"
        assert format_seconds(5e-6) == "5.0 us"

    def test_format_count(self):
        assert format_count(262144) == "256Ki" or format_count(262144) == "256K"
        assert format_count(512) == "512"
        assert format_count(32768) == "32Ki" or format_count(32768) == "32K"
        assert format_count(2_000_000) == "2M"
        assert format_count(3_000_000_000) == "3B"


class TestTimeBreakdown:
    def test_add_and_fractions(self):
        bd = TimeBreakdown()
        bd.add("io", 3.0)
        bd.add("agg", 1.0)
        bd.add("io", 1.0)
        assert bd.total == 5.0
        assert bd.fraction("io") == pytest.approx(0.8)
        assert bd.fraction("missing") == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("x", -1.0)

    def test_measure_context(self):
        bd = TimeBreakdown()
        with bd.measure("work"):
            time.sleep(0.005)
        assert bd.phases["work"] >= 0.004

    def test_merged(self):
        a = TimeBreakdown({"io": 1.0})
        b = TimeBreakdown({"io": 2.0, "agg": 1.0})
        m = a.merged(b)
        assert m.phases == {"io": 3.0, "agg": 1.0}
        assert a.phases == {"io": 1.0}  # originals untouched

    def test_empty_str(self):
        assert "empty" in str(TimeBreakdown())
        assert "%" in str(TimeBreakdown({"io": 1.0}))

    def test_zero_total_fraction(self):
        assert TimeBreakdown().fraction("io") == 0.0


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"])
        t.add_row(["alpha", 1.0])
        t.add_row(["b", 123456.0])
        out = t.render()
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "alpha" in out and "1.23e+05" in out or "123456" in out

    def test_title(self):
        t = Table(["x"], title="My Table")
        t.add_row([1])
        assert t.render().splitlines()[0] == "My Table"

    def test_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row([0.123456])
        t.add_row([0.0001])
        t.add_row([0])
        body = t.render()
        assert "0.12" in body and "0.0001" in body


class TestRng:
    def test_resolve_passthrough(self):
        g = np.random.default_rng(0)
        assert resolve_rng(g) is g

    def test_resolve_seed_deterministic(self):
        assert resolve_rng(42).random() == resolve_rng(42).random()

    def test_resolve_none(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        a = spawn_rng(1, 0).random(10)
        b = spawn_rng(1, 1).random(10)
        assert not np.allclose(a, b)

    def test_spawn_deterministic(self):
        assert np.allclose(spawn_rng(7, 3, 4).random(5), spawn_rng(7, 3, 4).random(5))

    def test_spawn_none_is_random(self):
        assert isinstance(spawn_rng(None, 1), np.random.Generator)
