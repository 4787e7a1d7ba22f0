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


def test_floats_are_written_at_9_significant_digits(tmp_path):
    # One Fig 4 precopy x20 cell's average migration time and degradation,
    # summed with Python 3.11's sum() and with a compensated sum (3.12's).
    path = write_table_csv(
        tmp_path / "fig4.csv", ["avg_s", "degradation"],
        {"3.11": [27.310423168424574, 0.016965310947073955],
         "3.12": [27.310423168424585, 0.01696531094707396]},
    )
    rows = list(csv.reader(path.open()))
    assert rows[1][1:] == rows[2][1:] == ["27.3104232", "0.0169653109"]
    s = SeriesResult("precopy")
    s.add(20, 0.01696531094707396)
    path = write_series_csv(tmp_path / "fig4c.csv", "n", [s])
    assert list(csv.reader(path.open()))[1] == ["precopy", "20", "0.0169653109"]


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
