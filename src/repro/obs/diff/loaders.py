"""Artifact loading + normalization for the run-comparison engine.

Every observability artifact the repo produces is a different view of
one run; to diff two of them they must first agree on a shape.  This
module canonicalizes each supported artifact kind into the same
normalized form — a list of *runs*, each carrying keyed series grouped
into named **dimensions** (unit-tagged ``{key: value}`` maps whose
values are exact binary floats):

========================  =====================================================
kind                      source document
========================  =====================================================
``analyze``               flight-recorder summary (``repro analyze --json``,
                          schema ``repro.analyze/1``) — or a raw trace
                          (``--trace`` output), which is analyzed on the fly
``critical-path``         ``repro critical-path --json``
                          (schema ``repro.critical-path/1``)
``prof``                  self-profiler summary (``repro profile --json``,
                          schema ``repro.prof/1``)
``bench``                 a figure-level benchmark result
                          (``benchmarks/e2e`` ``results.json``,
                          schema ``repro.bench.e2e/1``)
``series``                time-resolved telemetry (``--series OUT.json``
                          output, schema ``repro.series/1``)
========================  =====================================================

Only *additive* quantities become dimensions (bytes, seconds, counts):
those are the ones whose per-key deltas can telescope to the total
delta.  Ratios (a benchmark's memo hit rate, links per solve) are left
out.

Files are read by :func:`repro.obs.export.read_artifact`.  An
unreadable file, unknown or mismatched schemas raise :class:`DiffError`
with a one-line actionable message *before* any output is produced — a
diff across schema versions is refused, never half-rendered.
"""

from __future__ import annotations

import pathlib
from typing import Union

from repro.obs.export import ArtifactError, read_artifact, trace_events

__all__ = [
    "DiffError",
    "artifact_from_analyze_summary",
    "artifact_from_bench_results",
    "artifact_from_critical_path",
    "artifact_from_prof_summary",
    "artifact_from_series_doc",
    "load_artifact",
]

_PathLike = Union[str, pathlib.Path]

#: Schemas this engine understands, mapped to their normalized kind.
_SCHEMA_KINDS = {
    "repro.analyze/1": "analyze",
    "repro.critical-path/1": "critical-path",
    "repro.prof/1": "prof",
    "repro.bench.e2e/1": "bench",
    "repro.series/1": "series",
}


#: A user-facing, one-line refusal (unknown schema, kind mismatch,
#: unreadable artifact): the artifact reader's error.
DiffError = ArtifactError


def _series(run: dict, name: str, unit: str, values: dict) -> None:
    """Attach one dimension to a normalized run (empty series are kept:
    an empty-vs-populated pair must still diff, as all-new keys)."""
    run["series"][name] = {"unit": unit, "values": dict(values)}


def _new_run(label: str) -> dict:
    return {"label": label, "series": {}}


# -- analyze summaries ---------------------------------------------------------

def _normalize_analyze_run(run: dict) -> dict:
    out = _new_run(run.get("label", "run"))
    att = run.get("attribution", {})
    metered = att.get("metered")
    flows = att.get("flows_by_cause", {})
    if metered is not None:
        _series(out, "bytes.by_cause", "B", metered.get("by_cause", {}))
        _series(out, "bytes.by_tag", "B", metered.get("by_tag", {}))
    else:
        _series(out, "bytes.by_cause", "B",
                {c: st.get("bytes", 0.0) for c, st in flows.items()})
    _series(out, "flows.by_cause", "count",
            {c: st.get("flows", 0) for c, st in flows.items()})
    walls: dict = {}
    for tl in run.get("phases", {}).get("migrations", []):
        key = f"{tl['vm']}#{tl['attempt']}"
        walls[key] = tl["end_s"] - tl["start_s"]
    _series(out, "sim.wall.migrations", "s", walls)
    by_resource: dict = {}
    for cp in run.get("critical_path") or []:
        for row in cp.get("by_resource", []):
            key = row["resource"]
            by_resource[key] = by_resource.get(key, 0.0) + row["seconds"]
    if by_resource:
        _series(out, "critical.by_resource", "s", by_resource)
    return out


def artifact_from_analyze_summary(summary: dict, source: str) -> dict:
    """Normalize a flight-recorder summary (``repro.analyze/1``)."""
    return {
        "kind": "analyze",
        "source": source,
        "runs": [_normalize_analyze_run(r) for r in summary.get("runs", [])],
    }


# -- critical-path documents ---------------------------------------------------

def artifact_from_critical_path(doc: dict, source: str) -> dict:
    """Normalize a ``repro critical-path --json`` document."""
    runs = []
    for run in doc.get("runs", []):
        out = _new_run(run.get("label", "run"))
        by_resource: dict = {}
        walls: dict = {}
        for att in run.get("attempts", []):
            walls[f"{att['vm']}#{att['attempt']}"] = att["wall_s"]
            for row in att.get("by_resource", []):
                key = row["resource"]
                by_resource[key] = by_resource.get(key, 0.0) + row["seconds"]
        _series(out, "critical.by_resource", "s", by_resource)
        _series(out, "sim.wall.migrations", "s", walls)
        runs.append(out)
    return {"kind": "critical-path", "source": source, "runs": runs}


# -- profiler summaries --------------------------------------------------------

def _flatten_prof_tree(tree: list, prefix: str, out: dict) -> None:
    for node in tree:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        out[path] = out.get(path, 0.0) + node.get("exclusive_s", 0.0)
        _flatten_prof_tree(node.get("children", []), path, out)


def artifact_from_prof_summary(summary: dict, source: str) -> dict:
    """Normalize a self-profiler summary (``repro.prof/1``)."""
    if not summary.get("enabled", False):
        raise DiffError(
            f"profile summary in {source} was recorded with profiling "
            "disabled — re-run with --profile (or repro profile --json)")
    run = _new_run("profile")
    wall: dict = {}
    _flatten_prof_tree(summary.get("tree", []), "", wall)
    _series(run, "host.wall.by_scope", "s", wall)
    _series(run, "work.counters", "count", summary.get("counters", {}))
    return {"kind": "prof", "source": source, "runs": [run]}


# -- figure-level benchmark results --------------------------------------------

def artifact_from_bench_results(doc: dict, source: str) -> dict:
    """Normalize a ``benchmarks/e2e`` ``results.json``
    (``repro.bench.e2e/1``): one run per workload, from the per-layer
    metrics of its traced run.

    ``host.wall.by_layer`` holds the layers' self times (every
    ``*.self_s``, and the solver layer's ``netsim.fairness.solve_s``),
    which add up to the traced run's host time; ``work.counters`` holds
    the integer work counts.  Ratios are left out, and so are the
    profiler's inclusive scope times (``recompute_s``, ``fluid_s``),
    which overlap the self times.  Each run also carries ``timed``: the
    median, q1 and q3 of the untraced runs' ``host_s``, which the
    explainer judges the time verdict by (None for a ``--trace 1``
    result, which has no timed summary and so gets no verdict).
    """
    runs = []
    for workload, result in doc.get("workloads", {}).items():
        metrics = result.get("per_layer")
        if not metrics:
            raise DiffError(
                f"workload {workload} in {source} has no per-layer metrics "
                "— its traced run failed or was skipped (--trace 0); "
                "re-run benchmarks/e2e/run.py without --trace 0")
        run = _new_run(workload)
        _series(run, "host.wall.by_layer", "s",
                {k: v for k, v in metrics.items()
                 if k.endswith(".self_s") or k == "netsim.fairness.solve_s"})
        _series(run, "work.counters", "count",
                {k: v for k, v in metrics.items() if isinstance(v, int)})
        host_s = result.get("end_to_end", {}).get("host_s")
        run["timed"] = (None if host_s is None else
                        {"median": host_s["value"], "q1": host_s["q1"],
                         "q3": host_s["q3"]})
        runs.append(run)
    return {"kind": "bench", "source": source, "runs": runs}


# -- time-series documents -----------------------------------------------------

def artifact_from_series_doc(doc: dict, source: str) -> dict:
    """Normalize a time-series document (``repro.series/1``).

    Every sampled point becomes a keyed value (``signal@t`` → value;
    distribution snapshot cells ``signal@t:writes/column`` → count), so
    two recorded curves diff point-for-point: a regression that shifts
    the drain curve shows up as exactly-attributed per-point deltas.
    Rate totals get their own ``series.totals`` dimension.
    """
    if not doc.get("enabled", True):
        raise DiffError(
            f"series document in {source} was recorded with telemetry "
            "disabled — re-run with --series OUT.json")
    runs = []
    for run in doc.get("runs", []):
        out = _new_run(run.get("label", "run"))
        by_signal: dict = {}
        totals: dict = {}
        for name, sig in run.get("signals", {}).items():
            if sig["kind"] == "distribution":
                for snap in sig["snapshots"]:
                    t = snap["t"]
                    for wc, column, count in snap["cells"]:
                        by_signal[f"{name}@{t:g}:{wc}/{column}"] = count
                continue
            for t, value in sig["points"]:
                by_signal[f"{name}@{t:g}"] = value
            if sig["kind"] == "rate":
                totals[name] = sig["total"]
        _series(out, "series.by_signal", "value", by_signal)
        _series(out, "series.totals", "value", totals)
        runs.append(out)
    return {"kind": "series", "source": source, "runs": runs}


# -- file loading --------------------------------------------------------------

def load_artifact(path: _PathLike) -> dict:
    """Load + normalize one artifact file of any supported kind."""
    path = pathlib.Path(path)
    data = read_artifact(path)
    source = path.name

    events = trace_events(data)
    if events is not None:
        from repro.obs.analyze import analyze_events

        summary = analyze_events(events)
        if not summary["runs"]:
            raise DiffError(
                f"{source} contains no recorded runs — record the trace "
                "with --trace (add --causal for critical-path sections)")
        return artifact_from_analyze_summary(summary, source)

    if not isinstance(data, dict):
        raise DiffError(f"{source} is not a recognized repro artifact")
    schema = data.get("schema")
    kind = _SCHEMA_KINDS.get(schema)
    if kind is None:
        raise DiffError(
            f"{source} has unsupported schema {schema!r} — this engine "
            f"understands {sorted(_SCHEMA_KINDS)} (is it from a newer or "
            "older version?)")
    if kind == "analyze":
        return artifact_from_analyze_summary(data, source)
    if kind == "critical-path":
        return artifact_from_critical_path(data, source)
    if kind == "prof":
        return artifact_from_prof_summary(data, source)
    if kind == "series":
        return artifact_from_series_doc(data, source)
    return artifact_from_bench_results(data, source)
