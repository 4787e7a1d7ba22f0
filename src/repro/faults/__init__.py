"""``repro.faults`` — deterministic, seed-reproducible fault injection.

The paper's conclusion attributes I/O pre-copy's practical adoption to its
"perceived higher safety (i.e. tolerates the failure of the destination
during migration)".  Testing that safety/overhead trade-off needs failure
as a first-class, *scriptable* input rather than a hand-rolled
``interrupt()`` in a test: this package schedules faults against any
simulated component and lets the migration engines react with their
bounded-retry/abort machinery.

Two pieces:

* :class:`FaultPlan` / :class:`FaultSpec` (:mod:`repro.faults.plan`) — a
  declarative, JSON-serializable schedule of faults (what, where, when,
  how severe, for how long) plus the failure-semantics knobs it imposes on
  :class:`~repro.core.config.MigrationConfig` (timeouts, retry budget).
  ``FaultPlan.random(seed)`` derives a reproducible plan from a seed.
* :class:`FaultInjector` (:mod:`repro.faults.injector`) — executes a plan
  against a live :class:`~repro.cluster.cloud.Cluster`: link degradation /
  partition (NIC or backplane), node crash, repository stripe-server
  failure, slow disk.  Every injection and recovery is emitted as a trace
  instant and counter through :mod:`repro.obs`.

Wire a plan into an experiment with any scenario builder's ``faults=``
(``run_single_migration(..., faults=plan)``) or ``python -m repro.cli
single --faults plan.json``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import KINDS, FaultPlan, FaultSpec

__all__ = ["KINDS", "FaultInjector", "FaultPlan", "FaultSpec"]
