"""The paper's evaluation, experiment by experiment.

One module per artifact of Section 5:

* :mod:`~repro.experiments.table1` — the approach summary table.
* :mod:`~repro.experiments.fig3`   — single live migration of IOR / AsyncWR
  (migration time, network traffic, normalized throughput).
* :mod:`~repro.experiments.fig4`   — 1..30 simultaneous migrations of
  AsyncWR (avg migration time, traffic, performance degradation).
* :mod:`~repro.experiments.fig5`   — CM1 with 1..7 successive migrations
  (cumulated migration time, migration-attributable traffic, execution
  time increase).

:mod:`~repro.experiments.scenarios` contains :func:`simulate`, the one
scenario runner, and the builders the figures share;
:mod:`~repro.experiments.config` the workload calibration (the
Grid'5000 graphene hardware is :class:`~repro.cluster.ClusterSpec`'s
defaults);
:mod:`~repro.experiments.runner` result containers and the paper-style
text rendering used by the benchmark harness.
"""

from repro.experiments.config import (
    ASYNCWR_MAX_WRITE,
    IOR_MAX_READ,
    IOR_MAX_WRITE,
)
from repro.experiments.runner import SeriesResult, render_series, render_table

__all__ = [
    "ASYNCWR_MAX_WRITE",
    "IOR_MAX_READ",
    "IOR_MAX_WRITE",
    "SeriesResult",
    "render_series",
    "render_table",
]
