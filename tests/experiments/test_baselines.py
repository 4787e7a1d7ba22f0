"""A migration-free run depends on the approach only through where its
storage lives, so the figure sweeps run one baseline per placement.

Table 1 puts four approaches on local disks and pvfs-shared on PVFS.
Without a migration the storage strategies never act, so the four
local-storage baselines are equal field by field but for ``approach``;
this is the proof :func:`repro.experiments.scenarios.shared_baseline`
keys on, checked at the fig4 and fig5 golden geometries.
"""

import dataclasses

import pytest

from repro.core.registry import APPROACHES, manager_class
from repro.experiments import scenarios
from repro.experiments.fig5 import run_fig5
from repro.experiments.scenarios import (
    run_cm1_successive,
    run_concurrent_migrations,
)
from tests.golden.generate import (
    FIG4_LEVELS,
    FIG4_SCENARIO,
    FIG5_COUNTS,
    FIG5_SCENARIO,
)

LOCAL = [a for a in APPROACHES if manager_class(a).storage_placement == "local"]


def _fields(outcome) -> dict:
    fields = dataclasses.asdict(outcome)
    del fields["approach"]
    return fields


def _assert_local_equal_pvfs_apart(run):
    local = [_fields(run(approach)) for approach in LOCAL]
    assert len(local) == 4
    assert all(fields == local[0] for fields in local[1:])
    assert _fields(run("pvfs-shared")) != local[0]


@pytest.mark.parametrize("n", FIG4_LEVELS)
def test_fig4_golden_baselines_differ_only_by_placement(n):
    _assert_local_equal_pvfs_apart(lambda approach: run_concurrent_migrations(
        approach, n, migrate=False, **FIG4_SCENARIO))


def test_fig5_golden_baselines_differ_only_by_placement():
    _assert_local_equal_pvfs_apart(lambda approach: run_cm1_successive(
        approach, 0, migrate=False, **FIG5_SCENARIO))


def test_fig5_builds_one_baseline_cloud_per_placement(monkeypatch):
    labels = []
    simulate = scenarios.simulate

    def counting(outcome, label, *args, **kwargs):
        labels.append(label)
        return simulate(outcome, label, *args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate", counting)
    results = run_fig5(counts=FIG5_COUNTS, **FIG5_SCENARIO)
    assert [label for label in labels if label.endswith("/baseline")] == [
        "our-approach/cm1-x0/baseline", "pvfs-shared/cm1-x0/baseline"]
    # Every approach holds its own copy, under its own label.
    baselines = {approach: per_count[1][1]
                 for approach, per_count in results.items()}
    assert [b.approach for b in baselines.values()] == list(APPROACHES)
    assert len({id(b) for b in baselines.values()}) == len(APPROACHES)
    assert all(per_count[3][1] is baselines[approach]
               for approach, per_count in results.items())
