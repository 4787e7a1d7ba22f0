"""``repro.obs.diff`` — the run-comparison engine.

The rest of the observability stack explains *one* run exhaustively;
this package answers the comparative questions: given two artifacts of
the same kind (two flight-recorder summaries, two critical-path
documents, two profiler trees, or two ``benchmarks/e2e`` results
files), attribute the delta — simulated time, bytes, host wall-clock,
work counters — to specific keys, with the same telescoping exactness
discipline as the byte attribution and critical-path tiling: per-key
contributions sum to the total delta exactly, checked on rationals.

Layering: this package may import from ``repro.obs.analyze`` /
``repro.obs.causal`` / ``repro.obs.prof``, but nothing in ``repro.obs``
may import it back (enforced by simlint S502).
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.diff.delta import dimension_delta, merge_conservation
from repro.obs.diff.explain import explain_pair
from repro.obs.diff.loaders import (
    DiffError,
    artifact_from_analyze_summary,
    artifact_from_bench_results,
    artifact_from_critical_path,
    artifact_from_prof_summary,
    artifact_from_series_doc,
    load_artifact,
)
from repro.obs.diff.report import render_diff_html, render_diff_text

__all__ = [
    "SCHEMA",
    "DiffError",
    "artifact_from_analyze_summary",
    "artifact_from_bench_results",
    "artifact_from_critical_path",
    "artifact_from_prof_summary",
    "artifact_from_series_doc",
    "diff_artifacts",
    "diff_files",
    "diff_json",
    "dimension_delta",
    "explain_pair",
    "load_artifact",
    "merge_conservation",
    "render_diff_html",
    "render_diff_text",
]

SCHEMA = "repro.diff/1"


def _pair_runs(runs_a: list, runs_b: list) -> tuple:
    """Pair runs across the two artifacts.

    Primary pairing is by label (a fig2 summary labels runs by
    approach, so ``our-approach`` diffs against ``our-approach``).
    When no labels coincide but both sides carry the same number of
    runs, fall back to positional pairing — that is the common case of
    comparing the same experiment re-recorded under a different kernel
    or git revision, where labels may legitimately differ.
    """
    by_label_b = {}
    for run in runs_b:
        by_label_b.setdefault(run["label"], run)
    pairs = []
    matched_b = set()
    for run in runs_a:
        other = by_label_b.get(run["label"])
        if other is not None and id(other) not in matched_b:
            pairs.append((run, other))
            matched_b.add(id(other))
    if not pairs and len(runs_a) == len(runs_b):
        return list(zip(runs_a, runs_b)), [], []
    unmatched_a = [r["label"] for r in runs_a
                   if not any(p[0] is r for p in pairs)]
    unmatched_b = [r["label"] for r in runs_b if id(r) not in matched_b]
    return pairs, unmatched_a, unmatched_b


def diff_artifacts(a: dict, b: dict) -> dict:
    """The full diff document for two normalized artifacts.

    Raises :class:`DiffError` if the kinds differ — an analyze summary
    cannot be attributed against a profiler tree; the dimensions do not
    correspond.
    """
    if a["kind"] != b["kind"]:
        raise DiffError(
            f"cannot diff {a['kind']} artifact ({a['source']}) against "
            f"{b['kind']} artifact ({b['source']}) — record both sides "
            "the same way")
    pairs_raw, unmatched_a, unmatched_b = _pair_runs(a["runs"], b["runs"])
    pairs = []
    zero = True
    for run_a, run_b in pairs_raw:
        names = sorted(set(run_a["series"]) | set(run_b["series"]))
        dimensions = []
        for name in names:
            sa = run_a["series"].get(name)
            sb = run_b["series"].get(name)
            unit = (sa or sb)["unit"]
            dimensions.append(dimension_delta(
                name, unit,
                sa["values"] if sa else {},
                sb["values"] if sb else {},
            ))
        explained = explain_pair(dimensions, (run_a.get("timed"),
                                              run_b.get("timed")))
        if any(d["delta"] != 0 or d["new_keys"] or d["vanished_keys"]
               or any(c["delta"] != 0 for c in d["contributions"])
               for d in dimensions):
            zero = False
        pairs.append({
            "label": run_a["label"],
            "a_label": run_a["label"],
            "b_label": run_b["label"],
            "dimensions": dimensions,
            "headline": explained["headline"],
            "findings": explained["findings"],
        })
    return {
        "schema": SCHEMA,
        "kind": a["kind"],
        "a": {"source": a["source"]},
        "b": {"source": b["source"]},
        "pairs": pairs,
        "unmatched_a": unmatched_a,
        "unmatched_b": unmatched_b,
        "conservation_ok": all(
            merge_conservation(p["dimensions"]) for p in pairs),
        "zero_delta": zero and bool(pairs),
    }


def diff_files(path_a: "str | pathlib.Path",
               path_b: "str | pathlib.Path") -> dict:
    """Load, normalize and diff two artifact files."""
    return diff_artifacts(load_artifact(path_a), load_artifact(path_b))


def diff_json(doc: dict) -> str:
    """Deterministic encoding of a diff document (sorted keys, no
    whitespace variance) — byte-identical across invocations."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
