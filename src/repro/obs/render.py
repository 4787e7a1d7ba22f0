"""The rendering kit every report is composed from.

Unit formatters, the categorical palette and the HTML/SVG primitives
(page shell, card, badge, legend, table view, SVG frame, time-axis grid,
value-axis labels, rounded bar, lane chart) live here and nowhere else:
the flight report (:mod:`repro.obs.analyze.report`) and the diff report
(:mod:`repro.obs.diff.report`) are compositions of these pieces, so the
two read as one family of artifacts.

Pages are fully self-contained — inline SVG and CSS, no script, no
external assets.  Colour follows the key, never its rank (one fixed slot
table), text always uses ink tokens, and light/dark switch via CSS
custom properties keyed off ``prefers-color-scheme``.

``body``, ``sub``, ``header`` and ``rows`` arguments are markup: callers
escape the text they interpolate.  Labels, titles and aria text are
plain text, escaped here.
"""

from __future__ import annotations

from html import escape
from typing import Iterable, Sequence

__all__ = [
    "badge", "bar", "card", "color", "fmt_bytes", "fmt_count", "fmt_delta",
    "fmt_quantity", "fmt_seconds", "fmt_value", "lane_chart", "legend",
    "note", "page", "rect", "slot", "svg", "table", "table_view", "text",
    "time_grid", "value_axis", "vline",
]

# -- units ---------------------------------------------------------------------


def fmt_bytes(b: float) -> str:
    """Decimal-scaled bytes: ``1.50 MB``, ``812 B``."""
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(b) >= scale:
            return f"{b / scale:.2f} {unit}"
    return f"{b:.0f} B"


def fmt_seconds(t: float, digits: int = 2) -> str:
    return f"{t:.{digits}f} s"


def fmt_count(v: float) -> str:
    """Integral (or large) values with thousands separators, fractional
    ones to four significant digits."""
    if float(v).is_integer() or abs(v) >= 1000:
        return f"{v:,.0f}"
    return f"{v:.4g}"


def fmt_value(v: float) -> str:
    """A plotted sample: the integer when exact, else three digits."""
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}"


def fmt_quantity(value: float, unit: str, digits: int = 2) -> str:
    """``value`` in ``unit``: bytes scaled, seconds to ``digits`` places,
    anything else as a count."""
    if unit == "B":
        return fmt_bytes(value)
    if unit == "s":
        return fmt_seconds(value, digits)
    return fmt_count(value)


def fmt_delta(value: float, unit: str, digits: int = 2) -> str:
    """A signed :func:`fmt_quantity`; an exact zero prints as ``0``."""
    if value == 0:
        return "0"
    return ("+" if value > 0 else "-") + fmt_quantity(abs(value), unit, digits)


# -- palette -------------------------------------------------------------------

#: Key → categorical slot, one table for every chart.  Colour follows the
#: key across reports: a traffic tag, a critical-path resource or a drain
#: gauge takes the slot of the byte cause that dominates it, and the phase
#: slots run in recorded wall order (adjacent slots are the palette's
#: validated adjacency).
_SLOTS = {
    # byte causes
    "push": 1, "prefetch": 2, "pull.demand": 3, "repo.fetch": 4,
    "memory": 5, "workload": 6, "control": 7,
    # migration phases
    "request/setup": 1, "memory + push": 2, "sync": 3, "downtime": 4,
    "pull / post-control": 5,
    # critical-path resources
    "net.push": 1, "net.prefetch": 2, "net.demand": 3, "net.repo": 4,
    "net.memory": 5, "net.workload": 6, "net.control": 7, "net.retry": 8,
    "disk": 4, "pagecache": 3,
    # traffic tags
    "storage-push": 1, "storage-pull": 2, "storage-mirror": 3, "repo": 4,
    # remaining-set drain gauges
    "push.remaining": 1, "pull.pending": 3, "precopy.dirty": 5,
    "mirror.outstanding": 2,
}
_RETRY_SLOT = 8  # every retry.* cause shares the red slot


def slot(key: str) -> int | None:
    """The key's categorical slot; ``None`` folds to the muted colour."""
    if key in _SLOTS:
        return _SLOTS[key]
    if key.startswith("retry."):
        return _RETRY_SLOT
    return None


def color(key: str) -> str:
    """CSS colour for ``key``: stalls and retry backoff take the alarm
    hue, everything else its slot (or the muted ink)."""
    if key.startswith("stall.") or key == "retry.backoff":
        return "var(--serious)"
    n = slot(key)
    return f"var(--s{n})" if n else "var(--text-muted)"


# -- HTML ----------------------------------------------------------------------

_CSS = """
:root { margin: 0; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --good: #0ca30c; --critical: #d03b3b; --serious: #ec835a;
  --seq1: #cde2fb; --seq2: #9ec5f4; --seq3: #6da7ec; --seq4: #3987e5;
  --seq5: #256abf; --seq6: #184f95; --seq7: #0d366b;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 18px 0 6px; color: var(--text-secondary); }
.sub { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
.badge {
  display: inline-flex; align-items: center; gap: 6px;
  font-size: 13px; font-weight: 600;
}
.badge .dot { font-size: 15px; }
.badge.good { color: var(--good); }
.badge.bad { color: var(--critical); }
svg text { font-family: inherit; }
table { border-collapse: collapse; font-size: 13px; margin-top: 8px; }
th, td { padding: 3px 12px 3px 0; text-align: right; }
th:first-child, td:first-child { text-align: left; }
td { font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 500; }
tr { border-bottom: 1px solid var(--grid); }
details { margin-top: 8px; }
summary { cursor: pointer; font-size: 12px; color: var(--text-muted); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; font-size: 12px;
          color: var(--text-secondary); margin: 6px 0; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
"""


def page(title: str, sub: str, body: str) -> str:
    """The whole document: head, ``<h1>`` title, subtitle markup, body."""
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>"
        "<body class='viz-root'>"
        f"<h1>{escape(title)}</h1>"
        f"<p class='sub'>{sub}</p>"
        + body
        + "</body></html>\n"
    )


def card(title: str, body: str) -> str:
    return f'<div class="card"><h2>{escape(title)}</h2>{body}</div>'


def note(body: str) -> str:
    """A secondary-ink paragraph (captions, empty-state messages)."""
    return f"<p class='sub'>{body}</p>"


_BADGES: dict[bool | None, tuple[str, str]] = {
    True: (" good", "✓"), False: (" bad", "✗"), None: ("", "○"),
}


def badge(ok: bool | None, body: str) -> str:
    """A verdict: ``True`` good (✓), ``False`` bad (✗), ``None`` neutral."""
    cls, dot = _BADGES[ok]
    return (f'<span class="badge{cls}"><span class="dot">{dot}</span>'
            f"{body}</span>")


def legend(items: Iterable[tuple[str, str]]) -> str:
    """Swatch row; ``items`` is ``[(css_color, label)]``."""
    return '<div class="legend">' + "".join(
        f'<span><span class="sw" style="background:{c}"></span>'
        f"{escape(label)}</span>"
        for c, label in items
    ) + "</div>"


def table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A plain table; header and cells are markup."""
    return (
        "<table><tr>" + "".join(f"<th>{h}</th>" for h in header) + "</tr>"
        + "".join(
            "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>"
            for row in rows
        )
        + "</table>"
    )


def table_view(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The collapsible table under a chart — the chart's source of truth."""
    return ("<details><summary>table view</summary>"
            + table(header, rows) + "</details>")


# -- SVG -----------------------------------------------------------------------

def svg(width: int, height: int, aria: str, body: str) -> str:
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{escape(aria)}">'
        f"{body}</svg>"
    )


def text(x: object, y: object, label: str, *, size: int = 12,
         fill: str = "var(--text-primary)", anchor: str = "") -> str:
    """An SVG text run; ``x``/``y`` print as given (preformat floats)."""
    at = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{at} font-size="{size}" '
            f'fill="{fill}">{escape(label)}</text>')


def vline(x: float, y1: object, y2: object,
          stroke: str = "var(--grid)") -> str:
    """A 1px vertical hairline (gridline or axis)."""
    return (f'<line x1="{x:.1f}" y1="{y1}" x2="{x:.1f}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="1"/>')


def rect(x: object, y: object, w: object, h: object, fill: str, title: str,
         *, rx: int | None = None, stroke: str = "") -> str:
    """A titled rectangle; ``x``/``w`` are preformatted by the caller."""
    corner = f' rx="{rx}"' if rx is not None else ""
    edge = f' stroke="{stroke}" stroke-width="1"' if stroke else ""
    return (f'<rect x="{x}" y="{y}" width="{w}" height="{h}"{corner} '
            f'fill="{fill}"{edge}><title>{escape(title)}</title></rect>')


def bar(x: float, y: float, w: float, h: float, fill: str,
        title: str) -> str:
    """A horizontal bar, square at the baseline and 4px-rounded at the
    data end."""
    r = min(4.0, w / 2, h / 2)
    d = (
        f"M{x:.1f},{y:.1f} h{max(w - r, 0):.1f} "
        f"a{r:.1f},{r:.1f} 0 0 1 {r:.1f},{r:.1f} v{max(h - 2 * r, 0):.1f} "
        f"a{r:.1f},{r:.1f} 0 0 1 {-r:.1f},{r:.1f} h{-max(w - r, 0):.1f} z"
    )
    return f'<path d="{d}" fill="{fill}"><title>{escape(title)}</title></path>'


def time_grid(left: float, plot_w: float, t0: float, span: float,
              y1: int, y2: int, label_y: int) -> str:
    """Five gridlines at the quarters of ``[t0, t0 + span]``, each
    labelled in seconds below the plot."""
    parts = []
    for q in range(5):
        gx = left + plot_w * q / 4
        parts.append(vline(gx, y1, y2))
        parts.append(text(f"{gx:.1f}", label_y, f"{t0 + span * q / 4:.1f}s",
                          size=11, fill="var(--text-muted)", anchor="middle"))
    return "".join(parts)


def value_axis(x: int, y_top: int, y_zero: int, top_label: str) -> str:
    """The value axis: the peak at the top, ``0`` at the baseline."""
    return "".join(
        text(x, y, label, size=11, fill="var(--text-muted)", anchor="end")
        for y, label in ((y_top, top_label), (y_zero, "0"))
    )


#: A lane segment: ``(start_s, end_s, css_color, title)``.
Segment = tuple[float, float, str, str]


def lane_chart(lanes: Sequence[tuple[str, Sequence[Segment]]],
               t0: float, t1: float, aria: str, *, inset: float = 0.0,
               min_w: float = 1.0, digits: int = 1, rx: int | None = None,
               overlays: Sequence[tuple[float, float, str]] = ()) -> str:
    """One row of time segments per lane over a shared time axis.

    ``inset`` trims each segment on both sides (a surface gap between
    neighbours), ``min_w`` keeps short segments visible, ``digits`` sets
    the coordinate precision.  ``overlays`` — ``(start_s, end_s,
    title)`` windows such as injected faults — are drawn as a 3px alarm
    strip on top of every lane.
    """
    width, label_w, row_h, gap = 720, 150, 22, 10
    plot_w = width - label_w - 10
    height = len(lanes) * (row_h + gap) + 22
    span = max(t1 - t0, 1e-9)

    def sx(t: float) -> float:
        return label_w + plot_w * (t - t0) / span

    parts = [time_grid(label_w, plot_w, t0, span, 0, height - 18, height - 5)]
    for i, (label, segments) in enumerate(lanes):
        y = i * (row_h + gap)
        parts.append(text(label_w - 10, y + row_h - 7, label, anchor="end"))
        for start, end, fill, title in segments:
            x = sx(start)
            w = max(sx(end) - x, min_w)
            parts.append(rect(f"{x + inset:.{digits}f}", y,
                              f"{max(w - 2 * inset, min_w):.{digits}f}",
                              row_h, fill, title, rx=rx))
        for start, end, title in overlays:
            wx = sx(start)
            parts.append(rect(f"{wx:.1f}", y - 3,
                              f"{max(sx(end) - wx, 1.0):.1f}", 3,
                              "var(--serious)", title))
    return svg(width, height, aria, "".join(parts))
