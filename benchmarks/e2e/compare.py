"""Compare two ``results.json`` files of ``run.py``: A (before) and B (after).

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, metric) with a verdict:

* end-to-end metrics (medians of timed runs): ``worse`` when B's median is
  worse than A's by more than the metric's bound in ``BENCHMARK.json``;
  ``unresolved`` when either side's quartile spread, as a share of its
  median, is wider than the bound, unless every B run beats every A run;
  ``better`` when B improves by more than the bound, or beats every A run
  by more than the spread; ``unchanged`` otherwise.
* ``errors_frac``: any increase is ``worse``.
* per-layer counts and ratios, which repeat exactly for a given seed:
  compared exactly.
* per-layer host times (``*_s``, ``trace.*``): one traced run per side, so
  no spread is known and the verdict is ``unresolved``.
* a changed output digest is reported as ``outputs changed``.

Exits 1 when an end-to-end metric is worse or ``errors_frac`` rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"]


def end_to_end_verdict(a: dict, b: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if better == "lower":
        all_beat = max(b["samples"]) < min(a["samples"])
    else:
        all_beat = min(b["samples"]) > max(a["samples"])
    width = max(spread(a), spread(b))
    if width > bound and not all_beat:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound or (all_beat and -worse_by > width):
        return "better"
    return "unchanged"


def exact_verdict(a: float, b: float, better: str) -> str:
    if a == b:
        return "unchanged"
    return "better" if (b < a) == (better == "lower") else "worse"


def is_timing(name: str) -> bool:
    return name.endswith("_s") or name.startswith("trace.")


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """``(rows, failed)``; a row is ``(workload, metric, a, b, change, verdict)``."""
    rows, failed = [], False
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            rows.append((workload, "*", None, None, None,
                         "only in " + ("B" if wa is None else "A")))
            continue
        if wa["digest"] != wb["digest"]:
            rows.append((workload, "digest", wa["digest"][:12], wb["digest"][:12],
                         None, "outputs changed"))
        for m in spec["end_to_end"]:
            ea, eb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if ea is None or eb is None:
                rows.append((workload, m["name"], None, None, None, "missing"))
                continue
            v = end_to_end_verdict(ea, eb, m["bound"], m["better"])
            failed |= v == "worse"
            rows.append((workload, m["name"], ea["value"], eb["value"],
                         (eb["value"] - ea["value"]) / ea["value"], v))
        ra, rb = wa["errors_frac"], wb["errors_frac"]
        v = exact_verdict(ra, rb, "lower")
        failed |= v == "worse"
        rows.append((workload, "errors_frac", ra, rb, None, v))
        for m in spec["per_layer"]:
            la, lb = wa["per_layer"].get(m["name"]), wb["per_layer"].get(m["name"])
            if la is None or lb is None:
                rows.append((workload, m["name"], la, lb, None, "missing"))
                continue
            change = (lb - la) / la if la else None
            v = "unresolved" if is_timing(m["name"]) else exact_verdict(la, lb, m["better"])
            rows.append((workload, m["name"], la, lb, change, v))
    return rows, failed


def _fmt(x) -> str:
    if x is None:
        return "-"
    return x if isinstance(x, str) else f"{x:.6g}"


def render(rows: list[tuple]) -> str:
    lines = [f"{'workload':18s} {'metric':34s} {'A':>14s} {'B':>14s} {'change':>8s}  verdict"]
    for workload, metric, va, vb, change, verdict in rows:
        pct = "-" if change is None else f"{100 * change:+.1f}%"
        lines.append(f"{workload:18s} {metric:34s} {_fmt(va):>14s} {_fmt(vb):>14s} "
                     f"{pct:>8s}  {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failed = compare(a, b, spec)
    print(render(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
