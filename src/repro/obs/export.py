"""Exporters: Chrome trace-event JSON, JSONL event stream, metrics dump;
and the one reader of every artifact they and the analyzers write.

The Chrome trace-event output loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``; the JSONL stream holds
the same records one per line, for ad-hoc ``jq``/pandas processing; the
metrics dump is the per-run snapshot of the
:class:`~repro.obs.registry.MetricsRegistry`.

All serialization uses sorted keys and fixed separators, so two identical
simulation runs produce byte-identical files — the property the
determinism regression tests pin down.

:func:`read_artifact` parses any of these files (and the analyzers'
JSON documents); :func:`trace_events` tells a trace from the other
documents, and :func:`trace_lanes` splits a trace back into the run
lanes that :func:`chrome_trace` labelled.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Optional, Union

from repro.obs.tracer import Tracer

__all__ = [
    "ArtifactError",
    "chrome_trace",
    "load_trace",
    "read_artifact",
    "trace_events",
    "trace_lanes",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
    "write_series_json",
    "write_trace",
]

_PathLike = Union[str, pathlib.Path]


def _dumps(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def chrome_trace(tracer: Tracer, process_prefix: str = "repro") -> dict:
    """The tracer's events as a Chrome trace-event JSON object.

    Metadata events name every process/thread lane after its label, so
    Perfetto shows ``repro:our-approach/ior`` and ``push:vm0`` instead of
    bare integers.
    """
    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{process_prefix}:{label}"},
        }
        for label, pid in sorted(tracer.pid_labels().items(),
                                 key=lambda kv: kv[1])
    ]
    meta.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for label, tid in sorted(tracer.tid_labels().items(),
                                 key=lambda kv: kv[1])
        for pid in sorted(tracer.pid_labels().values())
    )
    return {
        "displayTimeUnit": "ms",
        "traceEvents": meta + tracer.events,
    }


def write_chrome_trace(tracer: Tracer, path: _PathLike) -> pathlib.Path:
    """Write the Chrome/Perfetto trace JSON to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(chrome_trace(tracer)) + "\n")
    return path


def write_events_jsonl(tracer: Tracer, path: _PathLike) -> pathlib.Path:
    """Write the Chrome trace's records one per line, the lane-naming
    metadata first, so every reader treats both formats alike."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for ev in chrome_trace(tracer)["traceEvents"]:
            fh.write(_dumps(ev))
            fh.write("\n")
    return path


def write_trace(tracer: Tracer, path: _PathLike) -> pathlib.Path:
    """Write ``path`` in the format its suffix implies.

    ``.jsonl`` selects the line-delimited event stream; anything else gets
    the Chrome trace-event JSON.
    """
    path = pathlib.Path(path)
    if path.suffix == ".jsonl":
        return write_events_jsonl(tracer, path)
    return write_chrome_trace(tracer, path)


def write_metrics_json(dump: dict, path: _PathLike) -> pathlib.Path:
    """Write a metrics dump (see ``Observability.metrics_dump``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dump, sort_keys=True, indent=2) + "\n")
    return path


def write_series_json(doc: dict, path: _PathLike) -> pathlib.Path:
    """Write a ``repro.series/1`` document (``SeriesRecorder.summary``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(doc) + "\n")
    return path


class ArtifactError(ValueError):
    """An artifact that cannot be used, as one line for the user (the
    CLI prints ``error: <message>`` and exits 2, with no partial
    output)."""


def read_artifact(path: _PathLike) -> Any:
    """The JSON document in ``path``; for a ``.jsonl`` file, the list of
    its lines' records.

    Raises :class:`ArtifactError` when the file cannot be read as text or
    is not valid JSON.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    try:
        if path.suffix == ".jsonl":
            return [json.loads(line) for line in text.splitlines()
                    if line.strip()]
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from exc


def trace_events(data: Any) -> Optional[list]:
    """The events of a trace that :func:`read_artifact` returned — a
    Chrome trace object, or a bare array or JSONL stream of events — or
    ``None`` when ``data`` is some other document."""
    if isinstance(data, dict):
        return data.get("traceEvents")
    if (isinstance(data, list) and data
            and all(isinstance(e, dict) and "ph" in e for e in data[:16])):
        return data
    return None


def load_trace(path: _PathLike) -> list:
    """The events of the trace in ``path`` (empty for a file that holds
    no trace)."""
    return trace_events(read_artifact(path)) or []


def trace_lanes(events: list) -> tuple[list[tuple[str, list]], dict]:
    """A trace's events split into run lanes, and its thread labels.

    Returns ``([(label, lane events), ...], {tid: thread label})``, lanes
    in pid order.  A lane's label is its ``process_name`` metadata less
    the exporter's ``repro:`` prefix, or ``run-<pid>`` when the trace
    carries no metadata (a hand-built event list).  Metadata records
    belong to no lane.
    """
    pid_names: dict = {}
    tid_names: dict = {}
    by_pid: dict = {}
    for ev in events:
        if ev.get("ph") != "M":
            by_pid.setdefault(ev.get("pid"), []).append(ev)
            continue
        name = ev.get("args", {}).get("name", "")
        if ev.get("name") == "process_name":
            pid_names[ev.get("pid")] = name.split(":", 1)[-1]
        elif ev.get("name") == "thread_name":
            tid_names[ev.get("tid")] = name
    lanes = [(pid_names.get(pid, f"run-{pid}"), by_pid[pid])
             for pid in sorted(by_pid, key=lambda p: (p is None, p))]
    return lanes, tid_names
