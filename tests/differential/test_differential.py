"""Differential harness: the production simulator vs the reference oracle.

``oracle.kernel_scope`` runs code on one of two kernels:

* ``fast`` — the production simulator: bucketed same-tick scheduling,
  memoized max-min, one fabric settle per simulated instant and
  whole-array flow-table arithmetic.
* ``reference`` — the oracle (``oracle.py``): pure-heap scheduling, a
  from-scratch water-filling solve on every recompute, a settle at every
  change and per-flow loops; no caches, no shortcuts.

Every fast path carries an exactness argument (see
``docs/architecture.md``); this harness is the empirical teeth.  Each
scenario — the golden figure reproductions, the chaos-matrix fault cells,
and the zero-byte edge cases — runs under both kernels and the digests
must match **byte for byte**: metered traffic totals and (tag, cause)
attribution matrices at full float precision, event counts, terminal
migration state.  A single ULP of drift anywhere fails the comparison.

The digests serialize floats via ``repr`` (shortest round-trip), so
string equality is bitwise float equality — deliberately stricter than
the 9-significant-digit rounding the golden fixtures use.
"""

import json

import numpy as np
import pytest

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.core.config import MigrationConfig
from repro.simkernel import Environment

from tests.differential.oracle import KERNELS, kernel_scope
from tests.faults.test_chaos_matrix import (
    CHAOS_SPEC,
    FAULT_KINDS,
    _build,
    _plan,
)
from tests.golden.generate import GOLDENS, fig2_series_doc

MB = 2**20


def exact_json(obj) -> str:
    """Serialize without any rounding: byte equality == bitwise equality."""
    return json.dumps(obj, indent=1, sort_keys=True)


def _meter_digest(meter) -> dict:
    return {
        "by_pair": {
            f"{tag}|{cause}": v
            for (tag, cause), v in sorted(meter.by_pair().items())
        },
        "by_tag": dict(sorted(meter.by_tag().items())),
        "total": meter.total(),
    }


def _record_digest(record) -> dict:
    if record is None:
        return {"present": False}
    return {
        "present": True,
        "aborted": record.aborted,
        "abort_cause": record.abort_cause,
        "control_at": record.control_at,
        "released_at": record.released_at,
        "downtime": record.downtime,
    }


def _cluster_digest(env, cloud, vm, record) -> str:
    return exact_json({
        "meter": _meter_digest(cloud.cluster.fabric.meter),
        "events_processed": env.events_processed,
        "now": env.now,
        "record": _record_digest(record),
        "chunk_versions_sum": int(vm.manager.chunks.version.sum()),
        "chunk_versions_nonzero": int(
            np.count_nonzero(vm.manager.chunks.version)
        ),
        "manager_stats": {
            k: v for k, v in sorted(getattr(vm.manager, "stats", {}).items())
        },
    })


def _assert_kernels_agree(run, label: str) -> None:
    """``run(kernel) -> str`` digest; both kernels must agree exactly."""
    digests = {k: run(k) for k in KERNELS}
    assert digests["fast"] == digests["reference"], (
        f"{label}: fast kernel diverged from the reference oracle.\n"
        "First differing lines:\n" + _first_diff(
            digests["fast"], digests["reference"]
        )
    )


def _first_diff(a: str, b: str, context: int = 3) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            lo = max(0, i - context)
            return "\n".join(
                f"  fast: {p}\n  ref:  {q}"
                for p, q in zip(la[lo:i + context], lb[lo:i + context])
            )
    return "  (digests differ in length only)"


def _strip_kernel_introspection(doc):
    """Drop ``kernel.*`` signals from a series document.

    Those gauges deliberately observe scheduler internals (ready-list
    depth, heap size), which legitimately differ between the fast and
    reference kernels; every other signal is simulation-time data and
    must still match bitwise.
    """
    for run in doc.get("runs", []):
        for name in [n for n in run["signals"] if n.startswith("kernel.")]:
            del run["signals"][name]
    return doc


# ---------------------------------------------------------------- goldens
@pytest.mark.parametrize("figure", sorted(GOLDENS))
def test_golden_scenario_differential(figure):
    """Every golden figure scenario, bit-identical under both kernels.

    The golden fixtures round to 9 significant digits; here the raw
    digest dicts are compared at full precision.
    """
    def run(kernel):
        with kernel_scope(kernel):
            if figure == "fig2_series":
                # The golden pins the fast kernel; compare the unpinned
                # document instead, minus scheduler introspection.
                doc = _strip_kernel_introspection(fig2_series_doc())
            else:
                doc = GOLDENS[figure]()
            return exact_json(doc)

    _assert_kernels_agree(run, f"golden:{figure}")


# ------------------------------------------------------------ chaos cells
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_chaos_cell_differential(kind):
    """Fault-path cells: the kernels must agree through degrades,
    partitions, crashes, repository outages and slow disks."""
    def run(kernel):
        with kernel_scope(kernel):
            plan = _plan(kind)
            env, cloud, vm = _build("our-approach", plan)
            out = {}

            def migrator():
                yield env.timeout(1.0)
                out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1))

            env.process(migrator())
            env.run(until=plan.horizon)
            return _cluster_digest(env, cloud, vm, out.get("record"))

    _assert_kernels_agree(run, f"chaos:{kind}")


# -------------------------------------------------------- zero-byte edges
def test_zero_byte_transfers_differential():
    """Zero-byte transfers and messages: no traffic, same event counts."""
    def run(kernel):
        with kernel_scope(kernel):
            from repro.netsim.flows import Fabric
            from repro.netsim.topology import Topology

            env = Environment()
            topo = Topology()
            h0 = topo.add_host("h0", 100e6)
            h1 = topo.add_host("h1", 100e6)
            fabric = Fabric(env, topo, latency=1e-4)
            seen = []

            def proc():
                yield fabric.transfer(h0, h1, 0.0, tag="storage-push",
                                      cause="push")
                seen.append(env.now)
                yield fabric.message(h0, h1, nbytes=0.0,
                                     tag="control", cause="control")
                seen.append(env.now)
                # A zero-byte flow sharing the fabric with a real one.
                ev = fabric.transfer(h0, h1, 10 * MB, tag="storage-pull",
                                     cause="prefetch")
                yield fabric.transfer(h1, h0, 0.0, tag="control",
                                      cause="control")
                yield ev
                seen.append(env.now)

            env.process(proc())
            env.run()
            return exact_json({
                "meter": _meter_digest(fabric.meter),
                "events_processed": env.events_processed,
                "timestamps": seen,
                "now": env.now,
            })

    _assert_kernels_agree(run, "zero-byte:transfers")


def test_zero_write_migration_differential():
    """A migration with no guest workload at all (push drains everything;
    TRANSFER_IO_CONTROL ships an empty remaining set)."""
    spec = dict(CHAOS_SPEC)
    spec.pop("repo_replication", None)

    def run(kernel):
        with kernel_scope(kernel):
            env = Environment()
            cluster = Cluster(env, ClusterSpec(**spec))
            cloud = CloudMiddleware(
                cluster, config=MigrationConfig(push_batch=8, pull_batch=8)
            )
            vm = cloud.deploy("vm0", cluster.node(0),
                              approach="our-approach",
                              working_set=16 * MB)
            out = {}

            def migrator():
                yield env.timeout(0.5)
                out["record"] = yield cloud.migrate(vm, cluster.node(1))

            env.process(migrator())
            env.run(until=300.0)
            record = out.get("record")
            assert record is not None and not record.aborted
            return _cluster_digest(env, cloud, vm, record)

    _assert_kernels_agree(run, "zero-byte:no-workload-migration")
