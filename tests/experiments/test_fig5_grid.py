"""``run_fig5`` runs CM1 on the scenario's 4x4 grid unless told otherwise."""

import inspect

import pytest

from repro.experiments import fig5


@pytest.fixture
def grids(monkeypatch):
    """Record the grid each CM1 run would use instead of simulating it."""
    seen = []
    signature = inspect.signature(fig5.run_cm1_successive)

    def record(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        seen.append(call.arguments["grid"])
        return object()

    monkeypatch.setattr(fig5, "run_cm1_successive", record)
    return seen


def test_no_grid_runs_every_cm1_run_at_4x4(grids):
    fig5.run_fig5(approaches=["our-approach"], counts=[1, 3])
    assert grids == [(4, 4)] * 3  # baseline, then one run per count


@pytest.mark.parametrize("grid", [(1, 2), (3, 5), (8, 8)],
                         ids=["1x2", "3x5", "8x8"])
def test_given_grid_reaches_the_baseline_and_every_migration_run(grids, grid):
    fig5.run_fig5(approaches=["our-approach"], counts=[1, 3], grid=grid)
    assert grids == [grid] * 3
