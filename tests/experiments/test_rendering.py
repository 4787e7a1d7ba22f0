"""Tests for result containers, rendering helpers, table1 and config."""

from repro.experiments.runner import (
    SeriesResult,
    render_series,
    render_sweep,
    render_table,
    sweep_series,
)
from repro.experiments.table1 import render_table1, run_table1


class TestRenderTable:
    def test_contains_rows_and_columns(self):
        text = render_table(
            "My Figure", ["colA", "colB"],
            {"ours": [1.5, 2.5], "baseline": [10.0, 20.0]},
            unit="s",
        )
        assert "My Figure" in text
        assert "[s]" in text
        assert "colA" in text and "colB" in text
        assert "ours" in text and "baseline" in text
        assert "1.5" in text

    def test_large_numbers_group_separated(self):
        text = render_table("T", ["c"], {"r": [12345.0]})
        assert "12,345" in text


class TestRenderSeries:
    def test_series_layout(self):
        s1 = SeriesResult("ours")
        s1.add(1, 10.0)
        s1.add(30, 12.0)
        s2 = SeriesResult("precopy")
        s2.add(1, 20.0)
        s2.add(30, 50.0)
        text = render_series("Fig", "#migrations", [s1, s2], unit="s")
        assert "#migrations" in text
        assert "ours" in text and "precopy" in text
        lines = text.splitlines()
        assert lines[1].split() == ["#migrations", "1", "30"]
        assert any("50" in ln for ln in lines)

    def test_empty_series(self):
        assert "no data" in render_series("Fig", "x", [])


class TestRenderSweep:
    #: {approach: {x: (outcome, baseline)}} with numbers for outcomes.
    RESULTS = {"ours": {1: (2.0, 1.0), 3: (5.0, 1.0)},
               "precopy": {1: (4.0, 2.0), 3: (9.0, 2.0)}}

    def test_series_take_the_metric_of_every_cell(self):
        ours, pre = sweep_series(self.RESULTS, lambda o, b: o - b)
        assert (ours.approach, ours.x, ours.y) == ("ours", [1, 3], [1.0, 4.0])
        assert (pre.approach, pre.x, pre.y) == ("precopy", [1, 3], [2.0, 7.0])

    def test_one_block_per_panel_in_order(self):
        text = render_sweep(self.RESULTS, "#migrations", [
            ("Gap", "s", lambda o, b: o - b),
            ("Ratio", "x", lambda o, b: o / b),
        ])
        gap, ratio = text.split("\n\n")
        assert gap.startswith("== Gap [s]") and ratio.startswith("== Ratio [x]")
        assert "4.5" in ratio


class TestTable1:
    def test_five_rows_in_paper_order(self):
        rows = run_table1()
        assert [name for name, _ in rows] == [
            "our-approach", "mirror", "postcopy", "precopy", "pvfs-shared",
        ]

    def test_render_contains_strategies(self):
        text = render_table1()
        assert "Sync writes both at src and dest" in text
        assert "Pull from src after transfer of control" in text


class TestConfig:
    def test_normalization_constants(self):
        from repro.experiments.config import (
            ASYNCWR_MAX_WRITE,
            IOR_MAX_READ,
            IOR_MAX_WRITE,
        )

        assert IOR_MAX_READ == 1e9
        assert IOR_MAX_WRITE == 266e6
        assert ASYNCWR_MAX_WRITE == 6e6
