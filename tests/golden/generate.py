"""Golden-fixture generation for the figure reproductions.

Each ``fig*_golden()`` function runs a small but structure-preserving
variant of one paper figure (fault-free, fixed seed) and reduces the
outcome to a plain JSON-serializable dict.  The committed fixtures under
``tests/golden/fixtures/`` pin these numbers: any engine refactor that
shifts the paper-reproduction results fails ``test_golden_figures.py``.

Regenerate (only after an *intentional* behavior change)::

    PYTHONPATH=src python -m tests.golden.generate

Floats are rounded to 9 significant digits before serialization so the
comparison is byte-stable without being hostage to sub-nano relative
float noise across numpy builds.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MB = 2**20

#: The goldens' geometry: each figure shrunk so that the migration still
#: lands mid-workload and the storage volume still dominates the memory
#: volume.  Fig 3's two runs, as ``run_fig3``'s ``runs`` table.
FIG3_RUNS = {
    "ior": {"warmup": 3.0, "workload_kwargs": {
        "iterations": 6, "file_size": 512 * MB, "op_size": 8 * MB}},
    "asyncwr": {"warmup": 30.0, "workload_kwargs": {"iterations": 60}},
}
#: Fig 4's concurrency levels and ``run_concurrent_migrations`` keywords.
#: The full figure needs 30 sources to show backplane contention; pinning
#: engine behavior only needs the concurrent-migration structure.
FIG4_LEVELS = (1, 2)
FIG4_SCENARIO = {"n_sources": 4, "warmup": 30.0,
                 "workload_kwargs": {"iterations": 90}}
#: Fig 5's migration counts and ``run_cm1_successive`` keywords.
FIG5_COUNTS = (1, 3)
FIG5_SCENARIO = {"grid": (2, 2),
                 "workload_kwargs": {"n_steps": 40, "dump_every": 8}}


def _round(node):
    """Round every float to 9 significant digits, recursively."""
    if isinstance(node, float):
        return float(f"{node:.9g}")
    if isinstance(node, dict):
        return {k: _round(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round(v) for v in node]
    return node


def canonical_json(obj) -> str:
    return json.dumps(_round(obj), indent=2, sort_keys=True) + "\n"


def _outcome_digest(outcome) -> dict:
    """The ScenarioOutcome fields the figures consume."""
    return {
        "migration_times": list(outcome.migration_times),
        "downtimes": list(outcome.downtimes),
        "total_traffic": outcome.total_traffic(),
        "migration_traffic": outcome.migration_traffic,
        "read_throughput": outcome.read_throughput,
        "write_throughput": outcome.write_throughput,
        "window_write_rate": outcome.window_write_rate,
        "workload_elapsed": outcome.workload_elapsed,
    }


def fig2_golden(obs=None) -> dict:
    from repro.experiments.fig2 import run_fig2

    record, stats, traffic = run_fig2("our-approach", seed=0, obs=obs)
    return {
        "phases": [[name, start, end] for name, start, end in record.phases],
        "control_at": record.control_at,
        "released_at": record.released_at,
        "downtime": record.downtime,
        "memory_rounds": record.memory_rounds,
        "memory_bytes": record.memory_bytes,
        "stats": stats,
        "traffic_by_tag": dict(traffic),
    }


def fig3_golden(obs=None) -> dict:
    from repro.experiments.fig3 import run_fig3

    results = run_fig3(runs=FIG3_RUNS, seed=0, obs=obs)
    return {
        workload: {
            approach: _outcome_digest(outcome)
            for approach, outcome in per_approach.items()
        }
        for workload, per_approach in results.items()
    }


def fig4_golden(obs=None) -> dict:
    from repro.experiments.fig4 import run_fig4

    results = run_fig4(levels=FIG4_LEVELS, seed=0, obs=obs, **FIG4_SCENARIO)
    return {
        approach: {
            str(n): {
                "outcome": _outcome_digest(outcome),
                "degradation": outcome.degradation_vs(baseline),
            }
            for n, (outcome, baseline) in per_level.items()
        }
        for approach, per_level in results.items()
    }


def fig5_golden(obs=None) -> dict:
    from repro.experiments.fig5 import run_fig5

    results = run_fig5(counts=FIG5_COUNTS, seed=0, obs=obs, **FIG5_SCENARIO)
    return {
        approach: {
            str(n): {
                "cumulated_migration_time": outcome.cumulated_migration_time,
                "migration_traffic": outcome.migration_traffic,
                "elapsed_increase": (
                    outcome.workload_elapsed - baseline.workload_elapsed
                ),
            }
            for n, (outcome, baseline) in per_count.items()
        }
        for approach, per_count in results.items()
    }


def work_counters_golden() -> dict:
    """The profiler's work counters for the four figure goldens' runs.

    The figure goldens pin what the runs compute; this one pins the work
    spent computing it (heap operations, flows touched, links visited,
    chunk scans), so a change that does more or less work at unchanged
    outputs moves it, and the fixture diff names the counters.  Run on
    the production kernel: the oracle's swaps do different work by
    design.
    """
    from repro.obs import Observability
    from tests.differential.oracle import kernel_scope

    out = {}
    with kernel_scope("fast"):
        for name, build in (("fig2", fig2_golden), ("fig3", fig3_golden),
                            ("fig4", fig4_golden), ("fig5", fig5_golden)):
            obs = Observability(trace=False, metrics=False, profile=True)
            build(obs)
            out[name] = dict(obs.profiler.counters)
    return out


#: What-if scenarios priced into the critical-path golden (resource, factor
#: as accepted by ``repro critical-path --what-if``).
CRITICAL_PATH_WHAT_IFS = ("nic=2", "storage=2")


def fig2_critical_path_golden() -> dict:
    """The full ``repro critical-path`` document for a causal fig2 run.

    Pins the happens-before recording, the critical-path extraction and
    the what-if pricing end to end: the same document the CLI emits for
    ``repro fig2 --causal --trace t.json`` + ``repro critical-path
    t.json --json`` (modulo the 9-sig-digit rounding applied to every
    fixture; ``tests/test_cli.py`` applies it to the CLI's output).
    """
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from repro.obs.causal import critical_path_summary, parse_what_if
    from repro.obs.export import chrome_trace

    obs = Observability(trace=True, causal=True)
    run_fig2("our-approach", seed=0, obs=obs)
    events = chrome_trace(obs.tracer)["traceEvents"]
    specs = [parse_what_if(s) for s in CRITICAL_PATH_WHAT_IFS]
    return critical_path_summary(events, specs)


def _fig2_analyze_summary(approach: str, kernel: str) -> dict:
    """The flight-recorder summary of one causal fig2 run on ``kernel``.

    Everything in the summary is simulation-time data (bytes, sim
    seconds, event counts), so it is deterministic across hosts — safe
    fixture material, unlike profiler wall-clock.
    """
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from repro.obs.analyze import analyze_tracer
    from tests.differential.oracle import kernel_scope

    obs = Observability(trace=True, causal=True)
    with kernel_scope(kernel):
        run_fig2(approach, seed=0, obs=obs)
    return analyze_tracer(obs.tracer)


def fig2_summary_fast_golden() -> dict:
    return _fig2_analyze_summary("our-approach", kernel="fast")


def fig2_summary_reference_golden() -> dict:
    """The same run on the reference oracle (``tests/differential/
    oracle.py``).  The two summaries are equal under every ``repro diff``
    dimension, which ``fig2_diff_kernels.json`` pins at the artifact
    level.  Their ``events`` counts differ: the oracle settles the fabric
    at every change, so it records more ``fabric.active_flows`` trace
    samples."""
    return _fig2_analyze_summary("our-approach", kernel="reference")


def fig2_summary_precopy_golden() -> dict:
    """Pinned to production: precopy's repository fetches start their
    stripes in one batch, and the oracle, which reshares per stripe,
    records more ``fabric.active_flows`` trace samples."""
    return _fig2_analyze_summary("precopy", kernel="fast")


def fig2_series_doc() -> dict:
    """The ``repro.series/1`` document for a fig2 run on whichever kernel
    is in force."""
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability

    obs = Observability(trace=False, metrics=False, series=True)
    run_fig2("our-approach", seed=0, obs=obs)
    return obs.series.summary()


def fig2_series_golden() -> dict:
    """The fig2 series document, on the production kernel.

    Pins every signal the probe writes — remaining-set drain, per-tag
    byte curves, dirty-rate samples, kernel depth — plus the per-run
    conservation verdict.  Like the analyze summaries, the document is
    pure simulation-time data, so it is deterministic across hosts; the
    ``kernel.*`` gauges observe scheduler internals, hence the pinned
    kernel.
    """
    from tests.differential.oracle import kernel_scope

    with kernel_scope("fast"):
        return fig2_series_doc()


#: The two chaos-matrix cells whose on-vs-off byte identity
#: ``tests/obs/test_series.py`` checks, and whose exports ``fig2_exports``
#: pins: (approach, fault kind).
CHAOS_CELLS = (("our-approach", "link-degraded"), ("precopy", "slow-disk"))


def run_chaos_cell(approach: str, plan, obs=None):
    """One migration in the chaos matrix's geometry under the FaultPlan
    ``plan``, with ``obs`` installed when given.

    Returns ``(digest, meter)``: everything the simulation computed that
    must not depend on observability, and the cell's TrafficMeter.
    """
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
    from repro.core.config import MigrationConfig
    from repro.faults import FaultInjector
    from repro.simkernel import Environment
    from repro.workloads.synthetic import PacedReader, RandomWriter
    from tests.faults.test_chaos_matrix import CHAOS_SPEC

    mb = 2**20
    env = Environment()
    if obs is not None:
        obs.install(env)
    cluster = Cluster(env, ClusterSpec(**CHAOS_SPEC))
    config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
    cloud = CloudMiddleware(cluster, config=config)
    vm = cloud.deploy("vm0", cluster.node(0), approach=approach,
                      memory_size=256 * mb, working_set=64 * mb)
    RandomWriter(vm, total_bytes=160 * mb, rate=12e6, op_size=2 * mb,
                 region_offset=0, region_size=96 * mb, seed=7).start()
    PacedReader(vm, total_bytes=64 * mb, rate=6e6, op_size=2 * mb,
                region_offset=96 * mb, region_size=64 * mb, seed=11).start()
    FaultInjector(env, cluster, plan).start()

    def migrator():
        yield env.timeout(1.0)
        yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run(until=plan.horizon)
    digest = {
        # A migration that never ends (the source lost after control)
        # leaves a record too.
        "records": [repr(r) for r in cloud.collector.records],
        "versions": vm.manager.chunks.version.tolist(),
        "clock": vm.content_clock.tolist(),
        "traffic": dict(cluster.fabric.meter.by_tag()),
        "events": env.events_processed,
    }
    return digest, cluster.fabric.meter


def _chaos_plan(kind: str):
    from tests.faults.test_chaos_matrix import _plan

    return _plan(kind)


def _tight_plan(fault):
    """One fault under a 2 s chunk timeout and a single retry: a stall
    longer than 2 s times out, one shorter than 4.25 s survives it."""
    from repro.faults import FaultPlan

    return FaultPlan(faults=[fault], chunk_timeout=2.0, retry_max=1,
                     retry_backoff=0.25, migration_timeout=90.0,
                     horizon=60.0)


def _partition(node: str, at: float, duration=None):
    from repro.faults import FaultSpec

    return FaultSpec("link-partition", node, at=at, duration=duration)


#: Instants at which a fault-free run of the chaos geometry sends a
#: control message (node0 is the source, node1 the destination).  A link
#: partition that starts at that very instant black-holes the message:
#: the injector's timer is older than the wakeup that sends it.
MESSAGE_INSTANTS = {
    "our-approach": {"transfer-io-control": ("node1", 1.8075086399999998),
                     "pull-request": ("node0", 1.8916065599999998),
                     "release": ("node0", 1.9126831999999998)},
    "postcopy": {"transfer-io-control": ("node1", 1.6816795199999999),
                 "pull-request": ("node0", 1.7867505599999998),
                 "release": ("node0", 1.9127899199999998)},
}


def fault_retry_cells() -> dict:
    """``{cell name: (approach, plan)}`` of the all-engine retry golden.

    Every approach runs the chaos matrix's ``destination-crash`` and
    ``link-degraded`` columns, the permanent source partition at
    t=1.81 s of ``test_source_lost_after_control_stalls_the_pull``, and a
    3 s destination partition from t=1.1 s, inside the push, bulk-copy
    and mirrored-write windows.  The downtime and post-control senders
    get a partition timed inside their own window: precopy's final flush
    (t=3.04 s) and the hybrid engines' three control messages (at the
    instant each is sent).
    """
    from repro.core.registry import APPROACHES

    cells = {}
    for approach in sorted(APPROACHES):
        for kind in ("destination-crash", "link-degraded"):
            cells[f"{approach}/{kind}"] = (approach, _chaos_plan(kind))
        cells[f"{approach}/source-lost"] = (
            approach, _tight_plan(_partition("node0", 1.81)))
        cells[f"{approach}/destination-partition"] = (
            approach, _tight_plan(_partition("node1", 1.1, 3.0)))
    cells["precopy/final-flush-partition"] = (
        "precopy", _tight_plan(_partition("node1", 3.04, 3.0)))
    for approach, instants in MESSAGE_INSTANTS.items():
        for label, (node, at) in instants.items():
            cells[f"{approach}/{label}-partition"] = (
                approach, _tight_plan(_partition(node, at, 1.0)))
    return cells


def fault_retries_golden() -> dict:
    """Every engine's timeout and retry paths, cell by cell: the
    migration records, the timeouts and retries per label, a digest of
    the simulation state and of the trace and metrics exports.

    The state runs on whichever kernel is in force, so the differential
    harness compares it across both.  The exports are generated on the
    production kernel: the oracle settles the fabric at every change and
    records more ``fabric.active_flows`` samples by design.
    """
    from repro.obs import Observability
    from tests.differential.oracle import kernel_scope

    out = {}
    for name, (approach, plan) in fault_retry_cells().items():
        obs = Observability(metrics=False)
        digest, _ = run_chaos_cell(approach, plan, obs)
        timeouts, retries = {}, {}
        for ev in obs.tracer.events:
            if ev["name"] in ("transfer.timeout", "message.timeout"):
                label = ev["args"]["label"]
                timeouts[label] = timeouts.get(label, 0) + 1
            elif ev["name"] == "transfer.retry":
                label = ev["args"]["label"]
                retries[label] = retries.get(label, 0) + 1
        out[name] = {
            "records": digest.pop("records"),
            "timeouts": timeouts,
            "retries": retries,
            "state_sha256": hashlib.sha256(
                json.dumps(digest, sort_keys=True).encode()).hexdigest(),
        }
        with kernel_scope("fast"):
            obs = Observability()
            run_chaos_cell(approach, plan, obs)
            out[name]["exports"] = _export_digests(obs)
    return out


def _export_digests(obs) -> dict:
    """sha256 and size of every file ``obs.write`` produces."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: pathlib.Path(tmp) / f"{kind}.json"
                 for kind in ("trace", "metrics", "series")}
        obs.write(trace_path=paths["trace"], metrics_path=paths["metrics"],
                  series_path=paths["series"])
        return {
            kind: {"bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest()}
            for kind, path in paths.items() if path.exists()
            for data in (path.read_bytes(),)
        }


def fig2_exports_golden() -> dict:
    """Digests of the raw exports: trace, metrics dump, series doc.

    The other goldens pin what the analyzers *derive* from a trace; this
    one pins the exported bytes themselves — every trace instant
    (``process.start``, ``push.hot_exclusion``, ``flow.cancelled``, ...)
    and every metric — so moving the code that emits them cannot change
    them unnoticed.  The fig2 run records everything at once (the
    equivalent of ``repro fig2 --trace-detail full --causal
    --metrics-out M --series S``); the two chaos cells add the fault
    paths.  Generated on the production kernel: the series ``kernel.*``
    gauges are scheduler introspection and differ on the oracle by design.
    """
    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability
    from tests.differential.oracle import kernel_scope

    out = {}
    with kernel_scope("fast"):
        obs = Observability(detail="full", causal=True, series=True)
        run_fig2("our-approach", seed=0, obs=obs)
        out["fig2"] = _export_digests(obs)
        for approach, kind in CHAOS_CELLS:
            obs = Observability()
            run_chaos_cell(approach, _chaos_plan(kind), obs)
            out[f"chaos/{approach}/{kind}"] = _export_digests(obs)
    return out


def _diff_fixture(name_a: str, name_b: str) -> dict:
    """Diff two already-generated summary fixtures (committed inputs ->
    committed output, exactly what ``tests/test_cli.py`` replays
    through ``repro diff``)."""
    from repro.obs.diff import diff_files

    return diff_files(FIXTURES / f"{name_a}.json", FIXTURES / f"{name_b}.json")


def fig2_diff_kernels_golden() -> dict:
    """production vs reference oracle: the all-zero delta (differential
    testing surfaced as a diff artifact)."""
    return _diff_fixture("fig2_summary_fast", "fig2_summary_reference")


def fig2_diff_precopy_golden() -> dict:
    """our-approach vs precopy: a real, ranked, exactly-conserving
    delta (the hybrid scheme's Fig 2 argument as a diff document)."""
    return _diff_fixture("fig2_summary_fast", "fig2_summary_precopy")


#: A fixed ``repro.prof/1`` summary for the report golden: real profiles
#: carry host wall-clock, which varies run to run.
REPORT_PROFILE = {
    "schema": "repro.prof/1",
    "enabled": True,
    "alloc": False,
    "total_wall_s": 1.25,
    "exclusive_sum_s": 1.25,
    "conservation": {"residual_s": 0.0, "rel_tol": 1e-6, "ok": True},
    "tree": [
        {"name": "run.fig2", "calls": 1, "inclusive_s": 1.0,
         "exclusive_s": 0.125, "children": [
             {"name": "simkernel", "calls": 4096, "inclusive_s": 0.875,
              "exclusive_s": 0.625, "children": [
                  {"name": "netsim.flows", "calls": 1536,
                   "inclusive_s": 0.25, "exclusive_s": 0.25,
                   "children": []},
              ]},
         ]},
        {"name": "obs.analyze", "calls": 1, "inclusive_s": 0.25,
         "exclusive_s": 0.25, "children": []},
    ],
    "counters": {"chunks.push_scanned": 1200, "fabric.recompute": 345},
}


def _digest(text: str) -> dict:
    data = text.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def fig2_reports_golden() -> dict:
    """Digests of every rendered report: flight report (HTML and text,
    with and without profile/series panels, fault-free and chaos cells)
    and diff report (HTML and text).

    Inputs are the committed summary, series and diff fixtures plus the
    two chaos cells analyzed on the production kernel, so any change to the
    rendering code that moves a single output byte fails here.
    """
    from repro.obs import Observability
    from repro.obs.analyze import analyze_tracer, render_html, render_text
    from repro.obs.diff import render_diff_html, render_diff_text
    from tests.differential.oracle import kernel_scope

    def fixture(name: str) -> dict:
        return json.loads((FIXTURES / f"{name}.json").read_text())

    summaries = {
        "fig2_fast": fixture("fig2_summary_fast"),
        "fig2_precopy": fixture("fig2_summary_precopy"),
    }
    with kernel_scope("fast"):
        for approach, kind in CHAOS_CELLS:
            obs = Observability(causal=True)
            run_chaos_cell(approach, _chaos_plan(kind), obs)
            summaries[f"chaos/{approach}/{kind}"] = analyze_tracer(obs.tracer)
    out = {}
    for name, summary in summaries.items():
        extra = ({"profile": REPORT_PROFILE, "series": fixture("fig2_series")}
                 if name == "fig2_fast" else {})
        out[f"html/{name}"] = _digest(render_html(summary, **extra))
        out[f"text/{name}"] = _digest(render_text(summary))
    for name in ("fig2_diff_kernels", "fig2_diff_precopy"):
        doc = fixture(name)
        out[f"html/{name}"] = _digest(render_diff_html(doc))
        out[f"text/{name}"] = _digest(render_diff_text(doc))
    return out


# Diff goldens consume the summary fixtures and the report golden consumes
# both, so generation order matters.
GOLDENS = {
    "fig2": fig2_golden,
    "fig2_critical_path": fig2_critical_path_golden,
    "fig3": fig3_golden,
    "fig4": fig4_golden,
    "fig5": fig5_golden,
    "work_counters": work_counters_golden,
    "fig2_summary_fast": fig2_summary_fast_golden,
    "fig2_summary_reference": fig2_summary_reference_golden,
    "fig2_summary_precopy": fig2_summary_precopy_golden,
    "fig2_series": fig2_series_golden,
    "fig2_exports": fig2_exports_golden,
    "fig2_diff_kernels": fig2_diff_kernels_golden,
    "fig2_diff_precopy": fig2_diff_precopy_golden,
    "fig2_reports": fig2_reports_golden,
    "fault_retries": fault_retries_golden,
}


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, build in GOLDENS.items():
        path = FIXTURES / f"{name}.json"
        path.write_text(canonical_json(build()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
