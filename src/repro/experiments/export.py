"""Machine-readable export of experiment results.

The text tables in :mod:`repro.experiments.runner` are for humans; this
module writes the same data as CSV (one row per approach/x-value) so
plots and regression dashboards can consume reproduction runs without
parsing text.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable, Mapping, Sequence

from repro.experiments.runner import SeriesResult

__all__ = ["write_table_csv", "write_series_csv"]


def write_table_csv(
    path: str | pathlib.Path,
    columns: Sequence[str],
    rows: Mapping[str, Sequence[float]],
) -> pathlib.Path:
    """Grouped-bar data (Figure 3 shape): one row per approach."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["approach", *columns])
        for name, values in rows.items():
            if len(values) != len(columns):
                raise ValueError(
                    f"row {name!r} has {len(values)} values for "
                    f"{len(columns)} columns"
                )
            writer.writerow([name, *values])
    return path


def write_series_csv(
    path: str | pathlib.Path,
    x_label: str,
    series: Iterable[SeriesResult],
) -> pathlib.Path:
    """Line-plot data (Figures 4/5 shape): long format, one row per
    (approach, x) point."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["approach", x_label, "value"])
        for s in series:
            if len(s.x) != len(s.y):
                raise ValueError(f"series {s.approach!r} has ragged x/y")
            for x, y in zip(s.x, s.y):
                writer.writerow([s.approach, x, y])
    return path

