"""Regenerates Table 1 (summary of compared approaches)."""

from repro.experiments.table1 import render_table1, run_table1


def test_table1(results_sink):
    rows = run_table1()
    assert len(rows) == 5
    assert rows[0][0] == "our-approach"
    results_sink("table1", render_table1())
