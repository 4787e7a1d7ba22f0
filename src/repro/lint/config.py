"""Lint scope: which rules apply where.

These constants encode this repository's invariants; fixture files can
re-scope themselves with the ``# simlint: module=<dotted.name>`` pragma,
which overrides the module identity the scoping below is matched
against.
"""

from __future__ import annotations

#: D rules apply to modules under these prefixes: the simulation stack
#: proper, where any nondeterminism breaks bit-identical reruns.
DETERMINISM_MODULES: tuple[str, ...] = (
    "repro.simkernel",
    "repro.netsim",
    "repro.core",
    "repro.hypervisor",
    "repro.workloads",
    "repro.obs",
    # The byte-exactness harnesses themselves: suites that compare runs
    # bit-for-bit must not be a source of nondeterminism.
    "tests.differential",
    "tests.golden",
)

#: Sanctioned host-time islands inside the determinism scope: modules
#: whose *job* is reading the host clock (the self-profiler).  D101/D102
#: (wall/calendar time) are waived here — host timing is what they
#: measure, and it never feeds back into simulation state — but D103/
#: D104 (randomness, hash-order iteration) still apply in full.
HOST_TIME_MODULES: tuple[str, ...] = (
    "repro.obs.prof",
)

#: K and P rules apply to modules under these prefixes: anything that
#: may run as a simulation process (K), which is also everywhere the
#: telemetry hooks are planted, so a probe block in any simulation
#: package must be observe-only (P).
SIM_MODULES: tuple[str, ...] = (
    "repro.simkernel",
    "repro.netsim",
    "repro.core",
    "repro.hypervisor",
    "repro.workloads",
    "repro.storage",
    "repro.repository",
    "repro.cluster",
)

#: Final attribute segments identifying telemetry handles for the P
#: rules: ``p = self.env.probe`` makes ``p`` a probe handle, and any call
#: rooted at a handle (or reading through one of these attributes) is
#: sanctioned inside a probe block.
PROBE_ATTRS: tuple[str, ...] = ("probe",)

#: Layer ranks for the S rules (longest-prefix match), low to high.  A
#: module may import same-or-lower layers only; packages not listed here
#: (obs, metrics, faults, lint) are cross-cutting infrastructure and
#: unconstrained.
LAYERS: dict[str, int] = {
    "repro.simkernel": 0,
    "repro.netsim": 1,
    "repro.storage": 2,
    "repro.repository": 2,
    "repro.hypervisor": 2,
    "repro.workloads": 2,
    "repro.core": 3,
    "repro.cluster": 4,
    "repro.experiments": 5,
    "repro.cli": 6,
}

#: The observability sub-DAG inside the (globally unranked) obs package,
#: for S502: the diff engine consumes the other analysis products
#: (flight summaries, critical paths, profiler trees) and must never be
#: imported back by their producers — that would make every artifact
#: schema circularly depend on its own differ.  Everything else under
#: ``repro.obs`` shares the base rank on purpose: the analyzer embeds
#: critical paths, and the extractor reads the analyzer's migration
#: timelines; both split traces with ``repro.obs.export``'s lane
#: splitter.
#: The series recorder is listed explicitly even though the
#: ``repro.obs`` prefix already ranks it: its loaders are a sanctioned
#: *input* of the diff engine (series docs diff like any other
#: artifact), so the asymmetry — diff may import series, series may
#: never import diff — deserves a named row.
OBS_LAYERS: dict[str, int] = {
    "repro.obs": 0,
    "repro.obs.series": 0,
    "repro.obs.diff": 1,
}

#: Receiver-name suffixes identifying the byte-moving surfaces for the C
#: rules: ``<receiver>.<method>(...)`` must pass the required keywords
#: explicitly when the receiver's final attribute segment matches
#: (exactly, or with a ``_`` prefix word, e.g. ``traffic_meter``).
FABRIC_RECEIVERS: tuple[str, ...] = ("fabric",)
REPO_RECEIVERS: tuple[str, ...] = ("repo", "repository")
METER_RECEIVERS: tuple[str, ...] = ("meter",)


def layer_of(module: str, layers: dict[str, int]) -> int | None:
    """Rank of ``module`` in ``layers`` by longest prefix match, if mapped."""
    best = None
    best_len = -1
    for prefix, rank in layers.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = rank, len(prefix)
    return best


def in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )
