"""The regression explainer: join the diffed dimensions into a story.

A delta table per dimension says *what* moved; this module says *why it
reads as a regression (or a win)* by joining the dimensions the way a
human would: start from the headline time dimension (simulated
migration wall, host wall per layer, host wall per scope — whichever
the artifact kind carries, else the first dimension that moved), name
its top contributors, then correlate
with the work counters that moved in the same run pair and with
byte-attribution causes that appeared or vanished (``retry.*`` showing
up is a fault-recovery signature, not a protocol change).

Everything is a pure function of the dimension-delta blocks, so the
output is deterministic: identical artifact pairs produce identical
findings, byte for byte.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.render import fmt_delta, fmt_quantity, fmt_seconds

__all__ = ["explain_pair"]

#: Headline candidates, most meaningful first per artifact kind.
_HEADLINE_DIMS = (
    "sim.wall.migrations",
    "host.wall.by_layer",
    "critical.by_resource",
    "host.wall.by_scope",
    "bytes.by_cause",
)

#: Relative change below which a total is reported as unchanged.
_FLAT_REL = 0.005

#: Decimal places for seconds in findings and headlines.
_DIGITS = 3


def _fmt_ratio(ratio: float) -> str:
    return f"{ratio:.2f}x" if ratio < 100 else f"{ratio:.0f}x"


def _verdict(dim: dict) -> str:
    ratio = dim["ratio"]
    if ratio is None:
        return "appeared" if dim["delta"] > 0 else "unchanged"
    if ratio > 1.0 + _FLAT_REL:
        return f"grew {_fmt_ratio(ratio)}"
    if 0 < ratio < 1.0 - _FLAT_REL:
        return f"shrank to {_fmt_ratio(ratio)[:-1]}x"
    if dim["unit"] == "s" and abs(dim["delta"]) > 0:
        return "moved"
    return "unchanged"


def _time_verdict(dim: dict) -> str:
    ratio = dim["ratio"]
    if ratio is None:
        return "appeared"
    if ratio > 1.0 + _FLAT_REL:
        return f"slowed {_fmt_ratio(ratio)}"
    if 0 < ratio < 1.0 - _FLAT_REL:
        return f"sped up {_fmt_ratio(1.0 / ratio)}"
    return "held steady"


def _fmt_timed(t: dict) -> str:
    return (f"{fmt_seconds(t['median'], _DIGITS)} "
            f"[{t['q1']:.{_DIGITS}f}, {t['q3']:.{_DIGITS}f}]")


def _bench_verdict(timed: tuple, traced: str) -> tuple[str, str]:
    """Verdict and totals for a benchmark's host wall.

    One traced run per side is no evidence either way, so the timed runs
    (median, q1, q3 per side) decide: a move only when the two [q1, q3]
    ranges are disjoint, sized by the ratio of medians.  Without timed
    runs there is no verdict.
    """
    a, b = timed
    if a is None or b is None:
        return "not judged (no timed runs)", f"traced {traced}"
    verdict = "held steady"
    if a["q3"] < b["q1"] or b["q3"] < a["q1"]:
        ratio = b["median"] / a["median"]
        verdict = (f"slowed {_fmt_ratio(ratio)}" if ratio > 1
                   else f"sped up {_fmt_ratio(1.0 / ratio)}")
    return verdict, (f"timed {_fmt_timed(a)} -> {_fmt_timed(b)}, "
                     f"traced {traced}")


def _totals(dim: dict) -> str:
    """The dimension's totals as ``A -> B``."""
    return " -> ".join(fmt_quantity(dim[side], dim["unit"], _DIGITS)
                       for side in ("total_a", "total_b"))


def _top_movers(dim: dict, n: int = 3) -> list:
    return [c for c in dim["contributions"][:n] if c["delta"] != 0]


def _dim(dimensions: list, name: str) -> Optional[dict]:
    for dim in dimensions:
        if dim["name"] == name:
            return dim
    return None


def _counter_clause(dimensions: list) -> Optional[str]:
    counters = _dim(dimensions, "work.counters")
    if counters is None:
        return None
    movers = _top_movers(counters, n=2)
    if not movers:
        return None
    parts = []
    for c in movers:
        if c["a"] > 0 and c["b"] > 0:
            parts.append(f"{c['key']} x{c['b'] / c['a']:.1f}")
        else:
            parts.append(f"{c['key']} {fmt_delta(c['delta'], 'count')}")
    return "correlated with " + ", ".join(parts)


def _cause_clause(dimensions: list) -> Optional[str]:
    causes = _dim(dimensions, "bytes.by_cause")
    if causes is None:
        return None
    if causes["new_keys"]:
        return ("introduced by flows with cause "
                + ", ".join(causes["new_keys"]))
    retry = [c for c in causes["contributions"]
             if c["key"].startswith("retry.") and c["delta"] > 0]
    if retry:
        return ("with " + ", ".join(
            f"{c['key']} {fmt_delta(c['delta'], 'B')}" for c in retry[:2]))
    return None


def explain_pair(dimensions: list,
                 timed: tuple = (None, None)) -> dict:
    """``{"headline": str, "findings": [...]}`` for one diffed run pair.

    The headline joins the leading time dimension's verdict with its top
    contributor, the strongest-moving work counters and any new or grown
    ``retry.*`` byte causes.  ``timed`` holds each side's timed-run
    summary (a benchmark's untraced ``host_s`` median, q1 and q3), which
    decides the ``host.wall.by_layer`` verdict.  ``findings`` carries
    one entry per dimension that moved at all, ranked-movers included,
    for programmatic consumers of the ``--json`` document.
    """
    findings = []
    for dim in dimensions:
        movers = _top_movers(dim)
        if not movers and not dim["new_keys"] and not dim["vanished_keys"]:
            continue
        clauses = [
            f"{c['key']} {fmt_delta(c['delta'], dim['unit'], _DIGITS)}"
            f" ({100 * c['share']:.0f}%)"
            for c in movers
        ]
        text = f"{dim['name']} {_verdict(dim)} ({_totals(dim)})"
        if clauses:
            text += ": " + ", ".join(clauses)
        findings.append({
            "dimension": dim["name"],
            "unit": dim["unit"],
            "delta": dim["delta"],
            "ratio": dim["ratio"],
            "top": [{k: c[k] for k in ("key", "a", "b", "delta", "share")}
                    for c in movers],
            "text": text,
        })

    headline = "no differences found"
    # Kinds without a headline dimension (series docs) lead with the
    # first dimension that moved.
    for name in [*_HEADLINE_DIMS, *(d["name"] for d in dimensions)]:
        dim = _dim(dimensions, name)
        if dim is None or (dim["delta"] == 0 and not dim["new_keys"]
                           and not dim["vanished_keys"]):
            continue
        if name == "host.wall.by_layer":
            verdict, totals = _bench_verdict(timed, _totals(dim))
        else:
            verdict = (_time_verdict(dim) if dim["unit"] == "s"
                       else _verdict(dim))
            totals = _totals(dim)
        headline = f"{name} {verdict}: {totals}"
        movers = _top_movers(dim, n=1)
        if movers:
            c = movers[0]
            delta = fmt_delta(c["delta"], dim["unit"], _DIGITS)
            headline += (f"; {100 * c['share']:.0f}% of the movement is "
                         f"{c['key']} ({delta})")
        for clause in (_counter_clause(dimensions), _cause_clause(dimensions)):
            if clause:
                headline += f", {clause}"
        break
    return {"headline": headline, "findings": findings}
