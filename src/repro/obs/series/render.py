"""Load and render ``repro.series/1`` documents: sparklines, CSV, JSON.

The ``repro series`` subcommand accepts either a recorded series
document (``--series OUT.json``) or a raw trace; for traces the gauge
signals are reconstructed from the Chrome counter tracks (``ph: "C"``)
that the tracer already emits, grouped per process lane.
"""

from __future__ import annotations

from repro.obs.export import (
    ArtifactError,
    read_artifact,
    trace_events,
    trace_lanes,
)
from repro.obs.series.core import SCHEMA

__all__ = [
    "SeriesLoadError",
    "coerce_series_doc",
    "series_from_trace_events",
    "render_sparklines",
    "series_csv",
    "load_series_file",
]

_SPARK = "▁▂▃▄▅▆▇█"


#: A one-line, user-facing load failure: the artifact reader's error.
SeriesLoadError = ArtifactError


def series_from_trace_events(events: list, source: str = "trace") -> dict:
    """A ``repro.series/1`` doc derived from a trace's counter tracks.

    Each ``ph: "C"`` sample becomes a gauge point on the signal
    ``<counter-name>`` (or ``<counter-name>.<key>`` for multi-value
    counters), with one run per traced process lane that has counters.
    """
    lanes, _tid_names = trace_lanes(events)
    runs = []
    for label, lane in lanes:
        counters = [ev for ev in lane if ev.get("ph") == "C"]
        if not counters:
            continue
        signals: dict[str, dict] = {}
        for ev in counters:
            args = ev.get("args") or {}
            for key in sorted(args):
                name = ev["name"] if len(args) == 1 else f"{ev['name']}.{key}"
                sig = signals.setdefault(name, {
                    "kind": "gauge", "unit": key, "points": [],
                })
                sig["points"].append([ev["ts"] / 1e6, float(args[key])])
        for sig in signals.values():
            values = [v for _t, v in sig["points"]]
            sig["samples"] = len(values)
            sig["min"] = min(values)
            sig["max"] = max(values)
        runs.append({
            "label": label,
            "signals": dict(sorted(signals.items())),
            "conservation": None,
        })
    if not runs:
        raise SeriesLoadError(
            f"{source} contains no counter events — record a series "
            "document with --series OUT.json, or trace with counters enabled"
        )
    return {"schema": SCHEMA, "enabled": True, "runs": runs}


def coerce_series_doc(data: object, source: str) -> dict:
    """Accept a series doc or a trace; anything else is a one-line error."""
    if isinstance(data, dict) and data.get("schema") == SCHEMA:
        if not data.get("enabled"):
            raise SeriesLoadError(
                f"{source} was recorded with series disabled — rerun with "
                "--series"
            )
        return data
    events = trace_events(data)
    if events is not None:
        return series_from_trace_events(events, source)
    if isinstance(data, dict) and "schema" in data:
        raise SeriesLoadError(
            f"{source} has schema {data['schema']!r} — expected {SCHEMA!r} "
            "(record one with --series OUT.json) or a trace"
        )
    raise SeriesLoadError(
        f"{source} is neither a {SCHEMA} document nor a trace"
    )


def _sparkline(points: list, width: int) -> str:
    if not points:
        return ""
    values = [v for _t, v in points]
    if len(values) > width:
        # Last-value decimation onto `width` columns over the time span.
        t0, t1 = points[0][0], points[-1][0]
        span = (t1 - t0) or 1.0
        cols: dict[int, float] = {}
        for t, v in points:
            cols[min(int((t - t0) / span * width), width - 1)] = v
        values = [cols[i] for i in sorted(cols)]
    lo, hi = min(values), max(values)
    rng = hi - lo
    if rng <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(int((v - lo) / rng * len(_SPARK)), len(_SPARK) - 1)]
        for v in values
    )


def _match(name: str, patterns: list) -> bool:
    import fnmatch
    return not patterns or any(fnmatch.fnmatch(name, p) for p in patterns)


def render_sparklines(doc: dict, width: int = 60,
                      signals: list | None = None) -> str:
    """Fixed-width text: one sparkline row per signal, per run."""
    patterns = signals or []
    out = []
    for run in doc["runs"]:
        out.append(f"== run: {run['label']}")
        shown = 0
        for name, sig in run["signals"].items():
            if not _match(name, patterns):
                continue
            shown += 1
            if sig["kind"] == "distribution":
                snaps = sig["snapshots"]
                cells = sum(len(s["cells"]) for s in snaps)
                out.append(f"  {name}".ljust(34)
                           + f"[distribution: {len(snaps)} snapshot(s), "
                             f"{cells} cells]")
                continue
            points = sig["points"]
            spark = _sparkline(points, width)
            lo = sig.get("min", points[0][1] if points else 0.0)
            hi = sig.get("max", points[-1][1] if points else 0.0)
            tail = (f"total {sig['total']:g} {sig['unit']}"
                    if sig["kind"] == "rate"
                    else f"min {lo:g}  max {hi:g} {sig['unit']}")
            out.append(f"  {name}".ljust(34) + spark)
            out.append(" " * 34 + f"{sig['samples']} samples  {tail}")
        if not shown:
            out.append("  (no matching signals)")
        cons = run.get("conservation")
        if cons is not None:
            verdict = ("exact" if cons["ok"]
                       else "VIOLATED — see by_tag")
            out.append(f"  net.* integral vs TrafficMeter: {verdict}")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def series_csv(doc: dict, signals: list | None = None) -> str:
    """Long-form CSV: ``run,signal,kind,unit,t,value`` rows."""
    patterns = signals or []
    lines = ["run,signal,kind,unit,t,value"]
    for run in doc["runs"]:
        for name, sig in run["signals"].items():
            if not _match(name, patterns):
                continue
            if sig["kind"] == "distribution":
                lines.extend(
                    f'{run["label"]},{name}:{wc}/{col},'
                    f'distribution,{sig["unit"]},{snap["t"]:g},{n}'
                    for snap in sig["snapshots"]
                    for wc, col, n in snap["cells"]
                )
                continue
            lines.extend(
                f'{run["label"]},{name},{sig["kind"]},{sig["unit"]},'
                f"{t:g},{v:g}"
                for t, v in sig["points"]
            )
    return "\n".join(lines) + "\n"


def load_series_file(path: str) -> dict:
    """Read ``path`` (JSON, or a JSONL trace stream) and coerce it."""
    return coerce_series_doc(read_artifact(path), path)
