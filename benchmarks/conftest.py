"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table/figure of the paper at the
paper's geometry: it runs the corresponding experiment under
``pytest-benchmark`` timing, prints the paper-style rows, and writes them
to the committed ``benchmarks/results/``.
"""

import pathlib

import pytest


def results_dir() -> pathlib.Path:
    """Where the rows go."""
    path = pathlib.Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def write_result(name: str, text: str) -> None:
    (results_dir() / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def write_csv_table(name: str, columns, rows) -> None:
    """Companion CSV next to the txt rendering (plotting-ready)."""
    from repro.experiments.export import write_table_csv

    write_table_csv(results_dir() / f"{name}.csv", columns, rows)


def write_csv_series(name: str, x_label, series) -> None:
    from repro.experiments.export import write_series_csv

    write_series_csv(results_dir() / f"{name}.csv", x_label, series)


@pytest.fixture
def results_sink():
    return write_result
