"""``run_fig5`` picks a grid only when the caller gives none."""

import pytest

from repro.experiments import fig5


@pytest.fixture
def grids(monkeypatch):
    """Record the grid of every CM1 run instead of simulating it."""
    seen = []

    def record(approach, n, grid, **kwargs):
        seen.append(grid)
        return object()

    monkeypatch.setattr(fig5, "run_cm1_successive", record)
    return seen


@pytest.mark.parametrize("quick, grid, expected", [
    (True, None, (2, 2)),
    (False, None, (4, 4)),
    (True, (1, 2), (1, 2)),
    (True, (8, 8), (8, 8)),
    (False, (3, 5), (3, 5)),
])
def test_grid(grids, quick, grid, expected):
    fig5.run_fig5(approaches=["our-approach"], counts=[1], grid=grid,
                  quick=quick)
    assert grids == [expected, expected]  # baseline, then one migration

