"""``repro.obs.prof`` — the simulator's deterministic self-profiler.

PRs 1–4 instrument *simulation* time; this package instruments the
*host*: where does interpreter wall-clock go, what allocates, and how
much algorithmic work (heap churn, solver rounds, link visits, chunk-set
scans) each subsystem performs.  It exists to serve the kernel-speed
program (ROADMAP item 1): measure before you optimize.

Three layers:

* scoped wall-clock attribution — ``perf_counter`` scopes around the
  kernel event dispatch, the fluid/fabric share updates, the max-min
  solver and the analysis pipeline, aggregated into an
  exclusive/inclusive subsystem tree (:mod:`~repro.obs.prof.core`);
* work counters — heap pushes/pops, callback-chain lengths, solver
  invocations/rounds/links visited, flows and chunk-set sizes touched:
  the exact quantities an incremental-recompute refactor must shrink;
* export — speedscope flamegraphs, collapsed stacks, JSON and a text
  tree (:mod:`~repro.obs.prof.export`).

Usage::

    from repro.obs import Observability
    obs = Observability(trace=False, metrics=False, profile=True)
    run_fig2(obs=obs)
    print(render_profile_text(obs.profiler.summary()))

CLI: ``repro profile [--speedscope OUT.json] [--check]`` or ``--profile``
on any run subcommand.  See ``docs/profiling.md``.

Zero overhead when off: the scopes and counters are opened by
``env.probe`` (:mod:`repro.obs.probe`), whose hot-path guard is one
branch when every backend is off.  Enabling profiling never changes
simulation output (asserted by ``tests/obs/test_prof.py``).
"""

from __future__ import annotations

from repro.obs.prof.core import ProfNode, Profiler
from repro.obs.prof.export import (
    collapsed_stacks,
    render_profile_text,
    speedscope_json,
    write_collapsed,
    write_speedscope,
)

__all__ = [
    "ProfNode",
    "Profiler",
    "collapsed_stacks",
    "render_profile_text",
    "speedscope_json",
    "write_collapsed",
    "write_speedscope",
]
