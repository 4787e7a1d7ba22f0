"""``repro.obs.analyze`` — derive the paper's figures from a run's trace.

The tracer (:mod:`repro.obs`) records *what happened when*; this package
answers *why each byte crossed the wire* and *where the time went*:

* :mod:`~repro.obs.analyze.attribution` — per-cause byte attribution
  with an exact conservation check against the TrafficMeter pair matrix
  embedded in the trace (``traffic.snapshot``);
* :mod:`~repro.obs.analyze.flows` — per-cause wire time from traced
  flow spans, and each run's full attribution block;
* :mod:`~repro.obs.analyze.phases` — migration phase timelines
  (pre-push → control transfer → prefetch drain) overlaid with
  fault-degraded windows;
* :mod:`~repro.obs.analyze.heatmap` — the per-chunk write-count ×
  transfer-fate matrix that explains the hybrid Threshold cutoff;
* :mod:`~repro.obs.analyze.report` — a dependency-free single-file HTML
  report and fixed-width text rendering.

Entry points::

    summary = analyze_file("trace.json")      # or analyze_events(...)
    summary_json(summary)                      # deterministic JSON
    render_html(summary)                       # self-contained report

CLI: ``repro analyze TRACE.json [--json OUT] [--html OUT] [--check]``,
or ``--report OUT.html`` directly on the run commands.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.obs.analyze.attribution import attribution_from_pairs
from repro.obs.analyze.flows import flow_stats, run_attribution
from repro.obs.analyze.heatmap import chunk_fate_maps, render_ascii
from repro.obs.analyze.phases import fault_windows, migration_timelines, phase_report
from repro.obs.analyze.report import render_html, render_text
from repro.obs.causal.critical import critical_paths

__all__ = [
    "analyze_events",
    "analyze_file",
    "analyze_tracer",
    "attribution_from_pairs",
    "chunk_fate_maps",
    "critical_paths",
    "fault_windows",
    "flow_stats",
    "load_trace",
    "migration_timelines",
    "phase_report",
    "render_ascii",
    "render_html",
    "render_text",
    "run_attribution",
    "summary_json",
    "write_summary_json",
]

SCHEMA = "repro.analyze/1"

_PathLike = Union[str, pathlib.Path]


def load_trace(path: _PathLike) -> list[dict]:
    """Events from a Chrome trace JSON or a JSONL event stream."""
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    data = json.loads(text)
    if isinstance(data, dict):
        return data.get("traceEvents", [])
    return data  # bare event array


def _name_maps(events: list) -> tuple[dict, dict]:
    """``pid -> label`` and ``tid -> label`` from metadata records.

    JSONL exports carry no metadata; missing entries fall back to
    ``run-<pid>`` / ``tid-<tid>`` downstream.  Process labels drop the
    exporter's ``repro:`` prefix.
    """
    pid_names: dict = {}
    tid_names: dict = {}
    for ev in events:
        if ev.get("ph") != "M":
            continue
        name = ev.get("args", {}).get("name", "")
        if ev.get("name") == "process_name":
            label = name.split(":", 1)[1] if ":" in name else name
            pid_names[ev.get("pid")] = label
        elif ev.get("name") == "thread_name":
            tid_names[ev.get("tid")] = name
    return pid_names, tid_names


def analyze_events(events: list) -> dict:
    """The full analysis summary for a trace's event list.

    Runs (process lanes) are analyzed independently and reported in pid
    order; every field is derived deterministically from the events, so
    identical traces produce identical summaries.
    """
    pid_names, tid_names = _name_maps(events)
    by_pid: dict = {}
    for ev in events:
        if ev.get("ph") == "M":
            continue
        by_pid.setdefault(ev.get("pid"), []).append(ev)
    runs = []
    for pid in sorted(by_pid, key=lambda p: (p is None, p)):
        lane = by_pid[pid]
        pairs = None
        for ev in lane:
            if ev.get("name") == "traffic.snapshot" and ev.get("ph") == "i":
                # The last snapshot wins (one per run scope in practice).
                pairs = ev.get("args", {}).get("pairs")
        phases = phase_report(lane, tid_names)
        heatmaps = chunk_fate_maps(lane)
        # The run's write-count distribution as a plain cell array —
        # the same [[writes, column, count]] format the series
        # recorder's distribution snapshots use, so the two artifacts
        # cross-check without reshaping.
        dist: dict = {}
        for hm in heatmaps:
            for wc, fate, n in hm["cells"]:
                dist[(wc, fate)] = dist.get((wc, fate), 0) + n
        runs.append({
            "label": pid_names.get(pid, f"run-{pid}"),
            "events": len(lane),
            "attribution": run_attribution(lane, pairs),
            "phases": phases,
            "heatmaps": heatmaps,
            "write_count_distribution": [
                [wc, fate, n] for (wc, fate), n in sorted(dist.items())
            ],
            # Empty for plain traced runs; populated when the trace was
            # recorded with causal wait edges (Observability(causal=True)).
            "critical_path": critical_paths(
                lane, tid_names, timelines=phases["migrations"],
            ),
        })
    return {
        "schema": SCHEMA,
        "runs": runs,
        "conservation_ok": all(
            r["attribution"]["metered"] is None
            or r["attribution"]["metered"]["conservation"]["exact"]
            for r in runs
        ),
        "critical_path_ok": all(
            cp["conservation"]["exact"]
            for r in runs for cp in r["critical_path"]
        ),
    }


def analyze_file(path: _PathLike) -> dict:
    return analyze_events(load_trace(path))


def analyze_tracer(tracer) -> dict:
    """Analyze a live tracer without an export round-trip.

    Goes through the Chrome-trace assembly so pid/tid labels resolve the
    same way they would from a file.
    """
    from repro.obs.export import chrome_trace

    return analyze_events(chrome_trace(tracer)["traceEvents"])


def summary_json(summary: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing \\n."""
    return json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"


def write_summary_json(summary: dict, path: _PathLike) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(summary_json(summary))
    return path
