"""Render an analysis summary: fixed-width text and single-file HTML.

The HTML report is composed from :mod:`repro.obs.render` — colour
follows the key (a cause, phase, resource or tag keeps its slot across
reports), a single-hue sequential ramp for the heatmap, and a table view
under every chart.
"""

from __future__ import annotations

from html import escape

from repro.obs.analyze.heatmap import FATE_COLUMNS, render_ascii
from repro.obs.analyze.phases import PHASE_ORDER
from repro.obs.render import (
    badge,
    bar,
    card,
    color,
    fmt_bytes,
    fmt_seconds,
    fmt_value,
    lane_chart,
    legend,
    note,
    page,
    rect,
    slot,
    svg,
    table,
    table_view,
    text,
    time_grid,
    value_axis,
    vline,
)
from repro.obs.series.agg import rates_from_cumulative

__all__ = ["render_text", "render_html", "cause_table"]


def cause_table(run: dict) -> list[tuple[str, float, float, int, float]]:
    """Rows ``(cause, bytes, share, flows, busy_s)`` in slot-then-size order."""
    att = run["attribution"]
    metered = att["metered"]
    flows = att["flows_by_cause"]
    by_cause = (metered or {}).get("by_cause") or {
        c: st["bytes"] for c, st in flows.items()
    }
    total = sum(by_cause.values())
    rows = []
    for cause, nbytes in by_cause.items():
        st = flows.get(cause, {})
        rows.append((
            cause,
            nbytes,
            nbytes / total if total > 0 else 0.0,
            st.get("flows", 0),
            st.get("busy_s", 0.0),
        ))
    rows.sort(key=lambda r: (slot(r[0]) or 99, -r[1], r[0]))
    return rows


def _attempt(d: dict) -> str:
    """``vm`` for a first attempt, ``vm #n`` for restarts."""
    return d["vm"] + (f" #{d['attempt'] + 1}" if d["attempt"] else "")


# -- text ----------------------------------------------------------------------

def render_text(summary: dict) -> str:
    """The analysis as fixed-width text (CLI default, example output)."""
    out = []
    for run in summary["runs"]:
        out.append(f"== run: {run['label']} ({run['events']} events)")
        rows = cause_table(run)
        if rows:
            out.append(
                "  cause".ljust(22) + "bytes".rjust(12) + "share".rjust(8)
                + "flows".rjust(7) + "busy".rjust(10)
            )
            out.extend(
                f"  {cause}".ljust(22)
                + fmt_bytes(nbytes).rjust(12)
                + f"{100 * share:.1f}%".rjust(8)
                + str(nflows).rjust(7)
                + fmt_seconds(busy).rjust(10)
                for cause, nbytes, share, nflows, busy in rows
            )
        metered = run["attribution"]["metered"]
        if metered is not None:
            cons = metered["conservation"]
            verdict = "exact" if cons["exact"] else (
                f"VIOLATED (residual {cons['residual_bytes']:g} B)"
            )
            out.append(
                f"  conservation: {verdict} — causes sum to "
                f"{fmt_bytes(cons['total_bytes'])} meter total"
            )
        else:
            out.append("  conservation: no traffic.snapshot in this lane")
        for tl in run["phases"]["migrations"]:
            head = f"  migration {tl['vm']}"
            if tl["attempt"]:
                head += f" (attempt {tl['attempt'] + 1})"
            if tl["aborted"]:
                head += f" — ABORTED ({tl['abort_cause']})"
            out.append(head)
            for ph in tl["phases"]:
                line = (
                    f"    {ph['name']}".ljust(26)
                    + f"{ph['start_s']:.2f} → {ph['end_s']:.2f}"
                    + f"  ({fmt_seconds(ph['duration_s'])})"
                )
                if ph.get("degraded_s"):
                    line += f"  [{fmt_seconds(ph['degraded_s'])} degraded]"
                out.append(line)
        for win in run["phases"]["fault_windows"]:
            end = "open" if win["end_s"] is None else f"{win['end_s']:.2f}"
            out.append(
                f"  fault {win['kind']} on {win['target']}: "
                f"{win['start_s']:.2f} → {end}"
            )
        for att in run.get("critical_path") or []:
            cons = att["conservation"]
            verdict = "exact" if cons["exact"] else (
                f"VIOLATED (residual {cons['residual_s']:g} s)"
            )
            out.append(
                f"  critical path {att['vm']} attempt {att['attempt']}: "
                f"{fmt_seconds(att['wall_s'])} wall, conservation {verdict}"
            )
            out.extend(
                f"    {row['resource']}".ljust(26)
                + fmt_seconds(row["seconds"]).rjust(10)
                + f"{100 * row['share']:.1f}%".rjust(8)
                for row in att["by_resource"]
            )
        out.extend(
            "  " + render_ascii(hm).replace("\n", "\n  ")
            for hm in run["heatmaps"]
        )
        out.append("")
    status = "exact" if summary["conservation_ok"] else "VIOLATED"
    out.append(f"byte-attribution conservation across all runs: {status}")
    return "\n".join(out)


# -- HTML ----------------------------------------------------------------------

def _cause_chart(rows: list) -> str:
    """Horizontal per-cause bars with direct labels and a table view."""
    if not rows:
        return note("no attributed bytes")
    width, label_w, value_w = 720, 150, 90
    bar_h, gap = 20, 8
    plot_w = width - label_w - value_w
    vmax = max(r[1] for r in rows) or 1.0
    height = len(rows) * (bar_h + gap) + 4
    parts = [vline(label_w + plot_w * q, 0, height - 4)
             for q in (0.25, 0.5, 0.75, 1.0)]
    for i, (cause, nbytes, share, nflows, busy) in enumerate(rows):
        y = i * (bar_h + gap)
        w = max(plot_w * nbytes / vmax, 2.0)
        title = (f"{cause}: {fmt_bytes(nbytes)} ({100 * share:.1f}%), "
                 f"{nflows} flows, {busy:.2f}s on the wire")
        parts.append(text(label_w - 10, y + bar_h - 6, cause, anchor="end"))
        parts.append(bar(label_w, y, w, bar_h, color(cause), title))
        parts.append(text(label_w + w + 8, y + bar_h - 6,
                          f"{fmt_bytes(nbytes)} ({100 * share:.0f}%)",
                          fill="var(--text-secondary)"))
    return svg(width, height, "bytes by cause", "".join(parts)) + table_view(
        ["cause", "bytes", "share", "flows", "wire time"],
        [(escape(cause), fmt_bytes(nbytes), f"{100 * share:.1f}%", nflows,
          fmt_seconds(busy))
         for cause, nbytes, share, nflows, busy in rows],
    )


def _phase_title(ph: dict) -> str:
    title = (f"{ph['name']}: {ph['start_s']:.2f}–{ph['end_s']:.2f}s "
             f"({ph['duration_s']:.2f}s)")
    if ph.get("degraded_s"):
        title += f", {ph['degraded_s']:.2f}s under injected faults"
    return title


def _phase_chart(run: dict) -> str:
    """One gantt row per migration attempt, degraded windows overlaid."""
    migrations = run["phases"]["migrations"]
    if not migrations:
        return note("no migration recorded in this lane")
    windows = run["phases"]["fault_windows"]
    t0 = min(tl["start_s"] for tl in migrations)
    t1 = max(tl["end_s"] for tl in migrations)
    for win in windows:
        t1 = max(t1, win["end_s"] if win["end_s"] is not None else t1)
    lanes = [
        (_attempt(tl) + (" ✕" if tl["aborted"] else ""),
         [(ph["start_s"], ph["end_s"], color(ph["name"]), _phase_title(ph))
          for ph in tl["phases"]])
        for tl in migrations
    ]
    overlays = [
        (win["start_s"], t1 if win["end_s"] is None else win["end_s"],
         f"fault {win['kind']} on {win['target']} ({win['start_s']:.2f}s → "
         + ("open" if win["end_s"] is None else f"{win['end_s']:.2f}s") + ")")
        for win in windows
    ]
    # 2px surface gap between adjacent segments.
    chart = lane_chart(lanes, t0, t1, "migration phases", inset=1.0, rx=2,
                       overlays=overlays)
    swatches = [(color(name), name) for name in PHASE_ORDER]
    if windows:
        swatches.append(("var(--serious)", "fault window"))
    return legend(swatches) + chart + table_view(
        ["migration", "phase", "start", "end", "duration", "degraded"],
        [(escape(_attempt(tl)), escape(ph["name"]),
          fmt_seconds(ph["start_s"]), fmt_seconds(ph["end_s"]),
          fmt_seconds(ph["duration_s"]),
          fmt_seconds(ph.get("degraded_s", 0.0)))
         for tl in migrations for ph in tl["phases"]],
    )


def _heatmap_chart(hm: dict) -> str:
    """Write-count × fate cells on the sequential ramp, plus the table."""
    cells = {(wc, fate): n for wc, fate, n in hm["cells"]}
    rows = sorted({wc for wc, _f, _n in hm["cells"]})
    if not rows:
        return note("no transferred chunks recorded")
    vmax = max(cells.values())
    cap, thr = hm.get("wc_cap"), hm.get("threshold")
    cell_w, cell_h, gap = 110, 26, 2
    label_w = 70
    width = label_w + len(FATE_COLUMNS) * (cell_w + gap) + 10
    height = (len(rows) + 1) * (cell_h + gap) + 6

    def ramp(n: int) -> str:
        if n == 0:
            return "var(--surface-1)"
        step = 1 + int(6 * (n / vmax) ** 0.5 + 1e-9)
        return f"var(--seq{min(step, 7)})"

    def row_label(wc: int) -> str:
        return f"{wc}+" if cap is not None and wc == cap else str(wc)

    parts = [
        text(f"{label_w + j * (cell_w + gap) + cell_w / 2:.1f}", cell_h - 9,
             fate, fill="var(--text-secondary)", anchor="middle")
        for j, fate in enumerate(FATE_COLUMNS)
    ]
    for i, wc in enumerate(rows):
        y = (i + 1) * (cell_h + gap)
        lab = row_label(wc)
        if thr is not None and wc == thr:
            lab += " ⏷"
        parts.append(text(label_w - 8, y + cell_h - 8, lab, anchor="end"))
        for j, fate in enumerate(FATE_COLUMNS):
            n = cells.get((wc, fate), 0)
            parts.append(rect(
                label_w + j * (cell_w + gap), y, cell_w, cell_h, ramp(n),
                f"{n} chunks written {lab} time(s) → {fate}",
                rx=2, stroke="var(--grid)",
            ))
    note_html = "" if thr is None else note(
        f"⏷ Threshold = {thr}: chunks written at least that often were "
        "excluded from the active push and could only be prefetched or "
        "pulled on demand."
    )
    return (
        svg(width, height, "chunk fate heatmap", "".join(parts)) + note_html
        + table_view(
            ["writes", *map(escape, FATE_COLUMNS)],
            [(escape(row_label(wc)),
              *(cells.get((wc, f), 0) for f in FATE_COLUMNS))
             for wc in rows],
        )
    )


def _critical_chart(run: dict) -> str:
    """Critical-path lane per attempt + the bottleneck ranking table."""
    attempts = run.get("critical_path") or []
    if not attempts:
        return ""
    lanes = [
        (_attempt(att) + (" ✕" if att["aborted"] else ""),
         [(seg["t0"], seg["t1"], color(seg["resource"]),
           f"{seg['resource']}: {seg['t0']:.3f}–{seg['t1']:.3f}s "
           f"({seg['t1'] - seg['t0']:.3f}s)")
          for seg in att["segments"]])
        for att in attempts
    ]
    chart = lane_chart(lanes, min(att["start_s"] for att in attempts),
                       max(att["end_s"] for att in attempts),
                       "critical path", min_w=0.5, digits=2)
    seen = dict.fromkeys(
        row["resource"] for att in attempts for row in att["by_resource"]
    )
    badges = [
        badge(True, f"{escape(_attempt(att))}: segments sum exactly to "
                    f"{fmt_seconds(att['conservation']['wall_s'])} wall")
        if att["conservation"]["exact"] else
        badge(False, f"{escape(_attempt(att))}: residual "
                     f"{att['conservation']['residual_s']:g} s")
        for att in attempts
    ]
    return (
        legend((color(resource), resource) for resource in seen) + chart
        + "<br>".join(badges)
        + table(
            ["attempt", "resource", "on critical path", "share"],
            [(escape(_attempt(att)), escape(row["resource"]),
              fmt_seconds(row["seconds"], 3), f"{100 * row['share']:.1f}%")
             for att in attempts for row in att["by_resource"]],
        )
    )


def _conservation_badge(run: dict) -> str:
    metered = run["attribution"]["metered"]
    if metered is None:
        return badge(None, "no traffic snapshot")
    cons = metered["conservation"]
    if cons["exact"]:
        return badge(True, "conservation exact — causes sum to "
                           f"{fmt_bytes(cons['total_bytes'])}")
    return badge(False, "conservation violated — residual "
                        f"{fmt_bytes(cons['residual_bytes'])}")


def _run_tiles(run: dict) -> str:
    metered = run["attribution"]["metered"]
    total = metered["total_bytes"] if metered else sum(
        st["bytes"] for st in run["attribution"]["flows_by_cause"].values()
    )
    tiles = [("total traffic", fmt_bytes(total))]
    migrations = run["phases"]["migrations"]
    done = [tl for tl in migrations if not tl["aborted"]]
    if done:
        tl = done[-1]
        tiles.append(
            ("migration time", fmt_seconds(tl["end_s"] - tl["start_s"]))
        )
        downtime = sum(
            ph["duration_s"] for ph in tl["phases"] if ph["name"] == "downtime"
        )
        tiles.append(("downtime", f"{1000 * downtime:.0f} ms"))
    aborted = sum(1 for tl in migrations if tl["aborted"])
    if aborted:
        tiles.append(("aborted attempts", str(aborted)))
    nflows = sum(
        st.get("flows", 0)
        for st in run["attribution"]["flows_by_cause"].values()
    )
    tiles.append(("completed flows", f"{nflows:,}"))
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{escape(v)}</div>'
        f'<div class="k">{escape(k)}</div></div>'
        for k, v in tiles
    ) + "</div>"


def _profile_rows(node: dict, depth: int, total: float, rows: list) -> None:
    share = 100.0 * node["exclusive_s"] / total if total > 0 else 0.0
    rows.append((
        f"<span style='padding-left:{depth * 14 + 6}px'>"
        f"{escape(node['name'])}</span>",
        f"{node['inclusive_s']:.4f}",
        f"{node['exclusive_s']:.4f}",
        f"{share:.1f}%",
        f"{node['calls']:,}",
        "<div style='background:var(--s1);height:9px;"
        f"width:{max(share, 0.0):.1f}%;min-width:1px;border-radius:2px'></div>",
    ))
    for child in node.get("children", []):
        _profile_rows(child, depth + 1, total, rows)


def _profile_panel(profile: dict) -> str:
    """The self-profiler card: host-time subsystem tree + work counters."""
    if not profile.get("enabled"):
        return ""
    total = profile["total_wall_s"]
    rows: list = []
    for root in profile.get("tree", []):
        _profile_rows(root, 0, total, rows)
    cons = profile["conservation"]
    verdict = badge(
        cons["ok"],
        f"exclusive times sum to wall (residual {cons['residual_s']:+.2e} s)"
        if cons["ok"] else
        f"profile NOT conserved — residual {cons['residual_s']:+.2e} s",
    )
    body = note(f"total attributed wall {total:.4f} s · {verdict}") + table(
        ["subsystem", "incl s", "excl s", "excl %", "calls", ""], rows,
    )
    counters = profile.get("counters", {})
    if counters:
        body += "<h3>Work counters</h3>" + table(
            ["counter", "value"],
            [(escape(k), f"{v:,}") for k, v in counters.items()],
        )
    return card("Host self-profile", body)


# -- time-resolved telemetry (repro.obs.series) --------------------------------

#: Gauge-name prefixes that make up the remaining-set drain curve.
_DRAIN_PREFIXES = (
    "push.remaining:", "pull.pending:", "precopy.dirty:",
    "mirror.outstanding:",
)


def _step_points(points: list) -> list:
    """Step-after interpolation: hold each sample until the next one."""
    out = []
    for i, (t, v) in enumerate(points):
        if i:
            out.append((t, points[i - 1][1]))
        out.append((t, v))
    return out


def _plot(height: int, t0: float, t1: float, vmax: float, top_label: str,
          aria: str, shapes: list) -> str:
    """A time plot: gridlines at the quarters of the span, the value axis,
    and ``shapes`` as ``[(element, attrs, points, title)]`` in data
    coordinates."""
    span = max(t1 - t0, 1e-9)
    width, left, bottom = 720, 56, 18
    plot_w, plot_h = width - left - 10, height - bottom - 8
    parts = [
        time_grid(left, plot_w, t0, span, 8, height - bottom, height - 4),
        value_axis(left - 6, 16, height - bottom, top_label),
    ]
    for element, attrs, points, title in shapes:
        coords = " ".join(
            f"{left + plot_w * (t - t0) / span:.1f},"
            f"{8 + plot_h * (1.0 - v / vmax):.1f}"
            for t, v in points
        )
        parts.append(f'<{element} points="{coords}" {attrs}>'
                     f"<title>{escape(title)}</title></{element}>")
    return svg(width, height, aria, "".join(parts))


def _line_chart(series: list, unit: str, aria: str) -> str:
    """Multi-line step chart; ``series`` is ``[(name, color, points)]``."""
    series = [(n, c, p) for n, c, p in series if p]
    if not series:
        return ""
    vmax = max(max(v for _t, v in p) for _n, _c, p in series) or 1.0
    return legend((c, name) for name, c, _pts in series) + _plot(
        150,
        min(p[0][0] for _n, _c, p in series),
        max(p[-1][0] for _n, _c, p in series),
        vmax, fmt_value(vmax) + (f" {unit}" if unit else ""), aria,
        [("polyline", f'fill="none" stroke="{c}" stroke-width="1.6"',
          _step_points(pts), name)
         for name, c, pts in series],
    )


def _rate_on_grid(rate_points: list, t: float) -> float:
    """The rate in effect at time ``t`` (0 outside the recorded range)."""
    for pt, pv in rate_points:
        if pt >= t:
            return pv
    return 0.0


def _stacked_bandwidth(run: dict) -> str:
    """Per-tag bandwidth as a stacked area chart (rates from the exact
    cumulative ``net.*`` curves)."""
    tags = sorted(
        ((name[len("net."):],
          rates_from_cumulative(sig["points"], sig["bin_width"]))
         for name, sig in run["signals"].items()
         if name.startswith("net.") and not name.startswith("net.rate.")
         and sig["kind"] == "rate" and sig["points"]),
        key=lambda tp: (slot(tp[0]) or 99, tp[0]),
    )
    if not tags:
        return ""
    t0 = min(p[0][0] for _t, p in tags)
    t1 = max(p[-1][0] for _t, p in tags)
    span = max(t1 - t0, 1e-9)
    n_grid = 120
    grid = [t0 + span * k / n_grid for k in range(n_grid + 1)]
    shapes = []
    running = [0.0] * len(grid)
    for tag, pts in tags:
        base = running
        running = [b + _rate_on_grid(pts, t) for b, t in zip(base, grid)]
        shapes.append((
            "polygon", f'fill="{color(tag)}" fill-opacity="0.85"',
            [*zip(grid, running), *zip(reversed(grid), reversed(base))], tag,
        ))
    vmax = max(running) or 1.0
    return legend((color(tag), tag) for tag, _pts in tags) + _plot(
        170, t0, t1, vmax, f"{fmt_bytes(vmax)}/s", "bandwidth by tag", shapes,
    )


def _dirty_vs_write_chart(run: dict) -> str:
    """Dirty-rate vs guest write-rate, each normalized to its own peak
    (different units; the shapes are what the comparison is about)."""
    series = []
    for name, sig in sorted(run["signals"].items()):
        if name.startswith("mem.dirty_rate:") and sig["points"]:
            series.append((f"{name} (peak "
                           f"{fmt_bytes(sig['max'] or 0.0)}/s)",
                           color("memory"), sig["points"], sig["max"]))
        elif name.startswith("writes.chunks:") and sig["points"]:
            rates = rates_from_cumulative(sig["points"], sig["bin_width"])
            peak = max(v for _t, v in rates)
            series.append((f"{name} (peak {fmt_value(peak)} chunks/s)",
                           color("workload"), rates, peak))
    norm = [
        (name, c, [[t, v / peak] for t, v in pts] if peak else pts)
        for name, c, pts, peak in series
    ]
    return _line_chart(norm, "× peak", "dirty rate vs write rate")


def _series_conservation_badges(run: dict) -> str:
    cons = run.get("conservation")
    if cons is None:
        return badge(None, "no traffic meter snapshot in this run")
    return "<br>".join(
        badge(True, f"net.{escape(tag)} integral = meter total "
                    f"({fmt_bytes(row['meter_total'])})")
        if row["exact"] else
        badge(False, f"net.{escape(tag)} integral "
                     f"{fmt_bytes(row['series_total'])} ≠ meter "
                     f"{fmt_bytes(row['meter_total'])}")
        for tag, row in sorted(cons["by_tag"].items())
    )


def _series_row(name: str, sig: dict) -> tuple:
    if sig["kind"] == "distribution":
        n = len(sig["snapshots"])
        return (escape(name), "distribution", escape(sig["unit"]),
                f"{n} snapshot{'s' if n != 1 else ''}", "", "", "")
    return (
        escape(name), escape(sig["kind"]), escape(sig["unit"]),
        sig["samples"],
        fmt_value(sig["min"]) if sig.get("min") is not None else "",
        fmt_value(sig["max"]) if sig.get("max") is not None else "",
        fmt_value(sig["total"]) if "total" in sig else "",
    )


def _series_panel(series: dict) -> str:
    """Time-series cards (one per recorded run): drain curve, stacked
    per-tag bandwidth, dirty-vs-write overlay, conservation badges."""
    if not series.get("enabled") or not series.get("runs"):
        return ""
    cards = []
    for run in series["runs"]:
        if not run["signals"]:
            continue
        blocks = [_series_conservation_badges(run)]
        drain = _line_chart(
            [
                (name, color(name.split(":", 1)[0]), sig["points"])
                for name, sig in sorted(run["signals"].items())
                if name.startswith(_DRAIN_PREFIXES) and sig["kind"] == "gauge"
            ],
            "chunks", "remaining-set drain",
        )
        blocks.extend(
            f"<h3>{heading}</h3>{chart}"
            for heading, chart in (
                ("Remaining-set drain", drain),
                ("Bandwidth by tag (stacked)", _stacked_bandwidth(run)),
                ("Dirty rate vs guest write rate", _dirty_vs_write_chart(run)),
            )
            if chart
        )
        blocks.append(table_view(
            ["signal", "kind", "unit", "samples", "min", "max", "total"],
            [_series_row(name, sig)
             for name, sig in sorted(run["signals"].items())],
        ))
        cards.append(card(f"Time-resolved telemetry — {run['label']}",
                          "".join(blocks)))
    return "".join(cards)


def render_html(summary: dict, title: str = "Migration flight report",
                profile: dict | None = None,
                series: dict | None = None) -> str:
    """The whole summary as one dependency-free HTML document.

    ``profile`` optionally embeds a host self-profile card
    (:meth:`repro.obs.prof.Profiler.summary`) after the run cards;
    ``series`` embeds time-resolved telemetry cards
    (:meth:`repro.obs.series.SeriesRecorder.summary`).
    """
    body = []
    for run in summary["runs"]:
        blocks = [
            _run_tiles(run),
            _conservation_badge(run),
            "<h3>Bytes by cause</h3>",
            _cause_chart(cause_table(run)),
            "<h3>Phase timeline</h3>",
            _phase_chart(run),
        ]
        critical = _critical_chart(run)
        if critical:
            blocks.append("<h3>Critical path (why migration took this long)"
                          "</h3>" + critical)
        for hm in run["heatmaps"]:
            vm = hm.get("vm") or "vm"
            blocks.append(
                f"<h3>Chunk write-count × fate ({escape(str(vm))})</h3>"
                + _heatmap_chart(hm)
            )
        body.append(card(run["label"], "".join(blocks)))
    if profile is not None:
        body.append(_profile_panel(profile))
    if series is not None:
        body.append(_series_panel(series))
    ok = summary["conservation_ok"]
    overall = badge(ok, "all byte attribution conserved" if ok else
                    "byte attribution NOT conserved — see runs below")
    return page(
        title,
        f"{len(summary['runs'])} run(s) · schema "
        f"{escape(summary['schema'])} · {overall}",
        "".join(body),
    )
