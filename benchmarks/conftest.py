"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table/figure of the paper: it runs
the corresponding experiment under ``pytest-benchmark`` timing, prints the
paper-style rows, and writes them to the results directory.

Scale control: the environment variable ``REPRO_FULL=1`` runs the paper's
full parameters (30 concurrent sources, 1..30 sweep, 4x4 CM1 grid with the
full step count) and writes to the tracked ``benchmarks/results_full/``;
the default is a reduced-but-structurally-identical configuration so a
benchmark pass completes in a couple of minutes, and it writes to the
untracked ``benchmarks/results/``.
"""

import os
import pathlib

import pytest


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def results_dir() -> pathlib.Path:
    """Where this run's rows go.  The committed paper-scale rows live in
    ``results_full/``, so a quick run never overwrites them."""
    name = "results_full" if full_scale() else "results"
    path = pathlib.Path(__file__).parent / name
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
