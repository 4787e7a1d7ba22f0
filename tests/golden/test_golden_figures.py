"""Golden regression: the figure reproductions must not drift.

The fixtures were generated on the pre-fault-injection engines; the
fault-injection refactor (timeouts, retries, abort plumbing) must be
behavior-neutral for fault-free runs, and any future engine change that
shifts the paper numbers must be an explicit decision (regenerate with
``PYTHONPATH=src python -m tests.golden.generate`` and commit the diff).
"""

import json

import pytest

from tests.golden.generate import FIXTURES, GOLDENS, canonical_json


@pytest.mark.parametrize("figure", sorted(GOLDENS))
def test_figure_matches_golden(figure):
    path = FIXTURES / f"{figure}.json"
    assert path.exists(), (
        f"missing fixture {path}; generate with "
        "'PYTHONPATH=src python -m tests.golden.generate'"
    )
    expected = path.read_text()
    actual = canonical_json(GOLDENS[figure]())
    assert actual == expected, (
        f"{figure} output drifted from the committed golden fixture. "
        "If the change is intentional, regenerate with "
        "'PYTHONPATH=src python -m tests.golden.generate' and commit."
    )


def test_work_counters_pop_each_queue_as_often_as_it_was_pushed():
    """Every figure run drains its queues, so each pop is counted under
    the queue it came from exactly when pops equal pushes per queue."""
    doc = json.loads((FIXTURES / "work_counters.json").read_text())
    for figure, counters in sorted(doc.items()):
        for queue in ("heap", "bucket"):
            assert (counters[f"kernel.{queue}_pop"]
                    == counters[f"kernel.{queue}_push"]), (figure, queue)


def test_fault_retries_golden_times_out_every_label():
    """The all-engine fault golden reaches every bounded-retry label of
    every engine, so a change to the retry step cannot hide behind a
    fixture that never enters it."""
    doc = json.loads((FIXTURES / "fault_retries.json").read_text())
    timed_out = set().union(*(cell["timeouts"] for cell in doc.values()))
    retried = set().union(*(cell["retries"] for cell in doc.values()))
    labels = {"push", "precopy", "precopy-final", "mirror-bulk",
              "mirror-write", "pull", "pull-request", "transfer-io-control",
              "release"}
    assert timed_out == retried == labels
