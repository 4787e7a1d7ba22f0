"""Render a diff document: ranked terminal tables and side-by-side HTML.

The HTML view is composed from :mod:`repro.obs.render`, the kit the
flight report uses, so a diff panel and a flight report read as one
family of artifacts.  Positive time/byte deltas (B costs more than A)
render in the alarm hue, negative ones in the good hue; the ranked table
under every chart is the source of truth.
"""

from __future__ import annotations

from html import escape

from repro.obs.render import (
    badge,
    bar,
    card,
    fmt_delta,
    fmt_quantity,
    note,
    page,
    svg,
    table_view,
    text,
    vline,
)

__all__ = ["render_diff_text", "render_diff_html"]


def _fmt(value: float, unit: str, signed: bool = False) -> str:
    # Seconds keep four places below 10 s, two above.
    fmt = fmt_delta if signed else fmt_quantity
    return fmt(value, unit, 4 if abs(value) < 10 else 2)


_STATUS_MARK = {"new": " [new]", "vanished": " [gone]"}


def _pair_label(pair: dict) -> str:
    label: str = pair["a_label"]
    if pair["b_label"] != label:
        label += f" vs {pair['b_label']}"
    return label


# -- text ----------------------------------------------------------------------

def render_diff_text(doc: dict, top: int = 10) -> str:
    """Fixed-width rendering: per pair, per dimension, the ranked top-N
    contributor rows plus the conservation verdict."""
    out = []
    out.append(f"== repro diff ({doc['kind']}): "
               f"A = {doc['a']['source']}  vs  B = {doc['b']['source']}")
    for pair in doc["pairs"]:
        out.append(f"=== {_pair_label(pair)}")
        out.append(f"  {pair['headline']}")
        for dim in pair["dimensions"]:
            unit = dim["unit"]
            moved = [c for c in dim["contributions"]
                     if c["status"] != "unchanged"]
            cons = dim["conservation"]
            verdict = ("exact" if cons["exact"]
                       else f"VIOLATED (residual {cons['residual']:g})")
            out.append(
                f"  -- {dim['name']} [{unit}]: "
                f"{_fmt(dim['total_a'], unit)} -> "
                f"{_fmt(dim['total_b'], unit)} "
                f"(delta {_fmt(dim['delta'], unit, signed=True)}) — "
                f"conservation {verdict}"
            )
            if not moved:
                out.append("     (no per-key movement)")
                continue
            out.append(
                "     " + "key".ljust(42) + "A".rjust(12) + "B".rjust(12)
                + "delta".rjust(13) + "share".rjust(8)
            )
            for c in moved[:top]:
                mark = _STATUS_MARK.get(c["status"], "")
                out.append(
                    "     " + (c["key"] + mark).ljust(42)
                    + _fmt(c["a"], unit).rjust(12)
                    + _fmt(c["b"], unit).rjust(12)
                    + _fmt(c["delta"], unit, signed=True).rjust(13)
                    + f"{100 * c['share']:.1f}%".rjust(8)
                )
            if len(moved) > top:
                out.append(f"     ... {len(moved) - top} more "
                           f"(--top {len(moved)} to see all)")
        out.append("")
    out.extend(
        f"  unmatched runs in {side}: {', '.join(labels)}"
        for side, labels in (("A", doc["unmatched_a"]),
                             ("B", doc["unmatched_b"]))
        if labels
    )
    status = "exact" if doc["conservation_ok"] else "VIOLATED"
    out.append(f"delta conservation across all dimensions: {status}")
    if doc["zero_delta"]:
        out.append("runs are identical under every compared dimension")
    return "\n".join(out).rstrip()


# -- HTML ----------------------------------------------------------------------

def _dim_panel(dim: dict, top: int) -> str:
    unit = dim["unit"]
    moved = [c for c in dim["contributions"] if c["status"] != "unchanged"]
    head = (
        f"<h3>{escape(dim['name'])} "
        f"<span class='sub'>[{escape(unit)}] "
        f"{escape(_fmt(dim['total_a'], unit))} → "
        f"{escape(_fmt(dim['total_b'], unit))} "
        f"(Δ {escape(_fmt(dim['delta'], unit, signed=True))})</span></h3>"
    )
    if not moved:
        return head + note("no per-key movement")
    shown = moved[:top]
    width, label_w, value_w = 720, 260, 110
    bar_h, gap = 16, 6
    plot_w = width - label_w - value_w
    vmax = max(abs(c["delta"]) for c in shown) or 1.0
    mid = label_w + plot_w / 2
    height = len(shown) * (bar_h + gap) + 4
    parts = [vline(mid, 0, height - 2, stroke="var(--axis)")]
    for i, c in enumerate(shown):
        y = i * (bar_h + gap)
        w = max((plot_w / 2) * abs(c["delta"]) / vmax, 1.5)
        delta = _fmt(c["delta"], unit, signed=True)
        parts.append(text(label_w - 10, y + bar_h - 4, c["key"], size=11,
                          anchor="end"))
        parts.append(bar(
            mid if c["delta"] >= 0 else mid - w, y, w, bar_h,
            "var(--critical)" if c["delta"] > 0 else "var(--good)",
            f"{c['key']}: {_fmt(c['a'], unit)} -> {_fmt(c['b'], unit)} "
            f"({delta})",
        ))
        parts.append(text(width - value_w + 6, y + bar_h - 4, delta, size=11,
                          fill="var(--text-secondary)"))
    return (
        head + svg(width, height, f"delta by key ({dim['name']})",
                   "".join(parts))
        + table_view(
            ["key", "A", "B", "Δ", "share", "status"],
            [(escape(c["key"]), escape(_fmt(c["a"], unit)),
              escape(_fmt(c["b"], unit)),
              escape(_fmt(c["delta"], unit, signed=True)),
              f"{100 * c['share']:.1f}%", escape(c["status"]))
             for c in moved],
        )
    )


def render_diff_html(doc: dict, top: int = 10,
                     title: str = "Run diff report") -> str:
    """The diff document as one dependency-free HTML page (flight-report
    styling; A→B delta bars diverging around zero, table under each)."""
    body = [
        card(_pair_label(pair),
             note(escape(pair["headline"]))
             + "".join(_dim_panel(dim, top) for dim in pair["dimensions"]))
        for pair in doc["pairs"]
    ]
    body.extend(
        note(f"unmatched runs in {side}: {escape(', '.join(labels))}")
        for side, labels in (("A", doc["unmatched_a"]),
                             ("B", doc["unmatched_b"]))
        if labels
    )
    ok = doc["conservation_ok"]
    verdict = badge(
        ok,
        "every dimension's contributions sum exactly to its Δtotal" if ok
        else "delta conservation VIOLATED — the attributor is broken",
    )
    return page(
        title,
        f"{escape(doc['kind'])} · A = {escape(doc['a']['source'])} · "
        f"B = {escape(doc['b']['source'])} · {verdict}",
        "".join(body),
    )
