"""The benchmark's workloads and the checks on their outputs.

Each workload is one unit of the paper's evaluation, driven only through
public entry points (``run_concurrent_migrations``, ``run_fig3``,
``run_fig5``) and reduced to *cells*: one scenario outcome plus the number
of migrations it was asked to complete.  Fig 4 cells use quick geometry
(30 AsyncWR sources, 90 iterations, 30 s warm-up) and run their
migration-free baseline first, exactly as ``run_fig4`` does.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple

from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5 import run_fig5
from repro.experiments.scenarios import run_concurrent_migrations

__all__ = ["WORKLOADS", "Cell", "canonical_json", "check", "digest", "run_workload"]


class Cell(NamedTuple):
    label: str
    outcome: object
    migrations: int


FIG4_QUICK = dict(n_sources=30, warmup=30.0, workload_kwargs={"iterations": 90})


def _fig4(approach: str, levels, seed: int, obs) -> list[Cell]:
    cells = []
    for n in levels:
        base = run_concurrent_migrations(approach, n, migrate=False, seed=seed,
                                         obs=obs, **FIG4_QUICK)
        out = run_concurrent_migrations(approach, n, seed=seed, obs=obs, **FIG4_QUICK)
        cells += [Cell(f"{approach}/x{n}/baseline", base, 0),
                  Cell(f"{approach}/x{n}", out, n)]
    return cells


def _fig3(seed: int, obs) -> list[Cell]:
    return [
        Cell(f"seed{s}/{wl}/{approach}", outcome, 1)
        for s in (seed, seed + 1, seed + 2)
        for wl, per_approach in run_fig3(seed=s, obs=obs).items()
        for approach, outcome in per_approach.items()
    ]


def _fig5(seed: int, obs) -> list[Cell]:
    cells = []
    for approach, per_count in run_fig5(seed=seed, obs=obs).items():
        baseline = next(iter(per_count.values()))[1]
        cells.append(Cell(f"{approach}/baseline", baseline, 0))
        cells += [Cell(f"{approach}/x{n}", out, n) for n, (out, _) in per_count.items()]
    return cells


#: name -> function(seed, obs) -> cells.  Why each workload exists is in
#: BENCHMARK.json and README.md.
WORKLOADS = {
    "fig4-precopy-x20": lambda seed, obs: _fig4("precopy", (20,), seed, obs),
    "fig4-pvfs-sweep": lambda seed, obs: _fig4("pvfs-shared", (10, 20, 30), seed, obs),
    "fig3-3seeds": _fig3,
    "fig5-cm1": _fig5,
}


def run_workload(name: str, seed: int, obs=None) -> list[Cell]:
    return WORKLOADS[name](seed, obs)


def _round(node):
    """Round every float to 9 significant digits, recursively (the
    golden-fixture convention, so digests survive last-digit float noise)."""
    if isinstance(node, float):
        return float(f"{node:.9g}")
    if isinstance(node, dict):
        return {k: _round(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round(v) for v in node]
    return node


def canonical_json(obj) -> str:
    return json.dumps(_round(obj), sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def cell_outputs(cell: Cell) -> dict:
    """The outcome fields the figures are drawn from."""
    o = cell.outcome
    return {
        "label": cell.label,
        "migration_times": list(o.migration_times),
        "downtimes": list(o.downtimes),
        "traffic_by_tag": dict(o.traffic_by_tag),
        "workload_elapsed": o.workload_elapsed,
        "elapsed_each": list(o.elapsed_each),
    }


def _numbers(node):
    if isinstance(node, (int, float)):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            yield from _numbers(v)


def check(cells: list[Cell]) -> tuple[str, list[str]]:
    """``(digest over every cell's outputs, problems found)``.

    A problem is a requested migration that did not complete, an aborted
    attempt, or a number that is not finite.
    """
    outputs = [cell_outputs(c) for c in cells]
    problems = []
    for cell, out in zip(cells, outputs):
        done = len(out["migration_times"])
        if done != cell.migrations:
            problems.append(f"{cell.label}: {done} of {cell.migrations} migrations completed")
        if cell.outcome.aborts:
            problems.append(f"{cell.label}: {cell.outcome.aborts} aborted attempts")
        if not all(math.isfinite(v) for v in _numbers(out)):
            problems.append(f"{cell.label}: non-finite output")
    return digest(outputs), problems
