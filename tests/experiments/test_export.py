"""Tests for CSV result export."""

import csv

import pytest

from repro.experiments.export import write_series_csv, write_table_csv
from repro.experiments.runner import SeriesResult


def test_write_table_csv(tmp_path):
    path = write_table_csv(
        tmp_path / "fig3a.csv",
        ["IOR", "AsyncWR"],
        {"ours": [1.0, 2.0], "precopy": [10.0, 20.0]},
    )
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["approach", "IOR", "AsyncWR"]
    assert rows[1] == ["ours", "1.0", "2.0"]
    assert len(rows) == 3


def test_write_table_csv_validates_shape(tmp_path):
    with pytest.raises(ValueError, match="columns"):
        write_table_csv(tmp_path / "x.csv", ["a"], {"r": [1.0, 2.0]})


def test_write_series_csv_long_format(tmp_path):
    s = SeriesResult("ours")
    s.add(1, 10.0)
    s.add(30, 12.0)
    path = write_series_csv(tmp_path / "fig4a.csv", "n", [s])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["approach", "n", "value"]
    assert rows[1] == ["ours", "1", "10.0"]
    assert rows[2] == ["ours", "30", "12.0"]


def test_write_series_csv_ragged_rejected(tmp_path):
    s = SeriesResult("bad")
    s.x = [1, 2]
    s.y = [1.0]
    with pytest.raises(ValueError, match="ragged"):
        write_series_csv(tmp_path / "x.csv", "n", [s])


def test_creates_parent_dirs(tmp_path):
    path = write_table_csv(
        tmp_path / "deep" / "dir" / "t.csv", ["c"], {"r": [1.0]}
    )
    assert path.exists()
