"""``repro.obs.causal`` — happens-before recording + critical-path analysis.

Answers *why migration took T seconds*.  Three pieces:

* :mod:`~repro.obs.causal.record` — a :class:`CausalRecorder`, the
  probe's causal backend (``Observability(causal=True)``), fed at every
  process resume.  In this simulator a process's wall time is composed
  entirely of waits (zero simulation time passes between a resume and the
  next yield), so recording *what each wait ended on* yields a
  happens-before DAG whose per-process wait intervals tile any window
  exactly — conservation by construction.  Byte-moving call sites
  tag the events they hand out with ``env.probe.causal_tag`` so the
  recorder can name the resource (flow bandwidth grant, disk service,
  retry timer, control message) instead of just the event type.
* :mod:`~repro.obs.causal.critical` — walks the recorded DAG backwards
  from each migration attempt's completion, decomposing its wall time
  into contiguous segments attributed to resource classes, with an exact
  :class:`fractions.Fraction` conservation check (segments sum to wall).
* :mod:`~repro.obs.causal.whatif` — re-prices the extracted path with one
  resource class sped up (``NIC=2``, ``stall.timeout=inf``) and reports
  the bounded speedup.

Surfacing: ``repro critical-path TRACE.json [--json] [--what-if R=F]``
(:func:`critical_path_summary`, rendered by :func:`render_critical_text`),
the critical-path lane in the HTML flight report, and Perfetto flow
arrows (``causal.handoff``) in the exported trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Sequence
    from fractions import Fraction

    from repro.obs.causal.whatif import _Inf

from repro.obs.causal.critical import critical_paths, classify
from repro.obs.causal.record import CausalRecorder, describe
from repro.obs.causal.whatif import parse_what_if, what_if
from repro.obs.export import trace_lanes

__all__ = [
    "CausalRecorder",
    "classify",
    "critical_path_summary",
    "critical_paths",
    "describe",
    "parse_what_if",
    "render_critical_text",
    "what_if",
]

SCHEMA = "repro.critical-path/1"


def critical_path_summary(
    events: list,
    what_if_specs: "Sequence[tuple[str, Fraction | _Inf]]" = (),
) -> dict:
    """The ``repro critical-path`` document for a trace's event list.

    Groups events into run lanes (:func:`repro.obs.export.trace_lanes`),
    extracts per-attempt critical paths, and optionally re-prices each
    attempt for every ``(resource, factor)`` in ``what_if_specs``.
    Deterministic: identical traces produce identical documents.
    """
    lanes, tid_names = trace_lanes(events)
    runs = []
    for label, lane in lanes:
        attempts = critical_paths(lane, tid_names)
        runs.append({
            "label": label,
            "attempts": attempts,
            "what_if": [
                what_if(att, res, fac)
                for att in attempts for res, fac in what_if_specs
            ],
        })
    return {
        "schema": SCHEMA,
        "runs": runs,
        "conservation_ok": all(
            a["conservation"]["exact"]
            for r in runs for a in r["attempts"]
        ),
    }


def render_critical_text(doc: dict) -> str:
    """Fixed-width text of a :func:`critical_path_summary` document: per
    attempt, its wall time, conservation verdict and resource ranking,
    then each run's what-if bounds."""
    lines: list[str] = []
    for run in doc["runs"]:
        if not run["attempts"]:
            continue
        lines.append(f"=== {run['label']} ===")
        for att in run["attempts"]:
            status = " [aborted]" if att["aborted"] else ""
            lines.append(
                f"migration {att['vm']} attempt {att['attempt']}{status}: "
                f"{att['wall_s']:.3f} s "
                f"({att['start_s']:.3f} -> {att['end_s']:.3f})"
            )
            cons = att["conservation"]
            lines.append(
                "  conservation: "
                + ("exact" if cons["exact"]
                   else f"RESIDUAL {cons['residual_s']:g} s")
            )
            lines.append("  critical path by resource:")
            lines.extend(
                f"    {row['resource']:<22s}"
                f"{row['seconds']:>10.3f} s  "
                f"{100 * row['share']:5.1f}%"
                for row in att["by_resource"]
            )
        lines.extend(
            f"  what-if {wi['resource']}x{wi['factor']:g} "
            f"(attempt {wi['attempt']}): wall {wi['wall_s']:.3f} -> "
            f">= {wi['new_wall_s']:.3f} s "
            f"(speedup <= {wi['speedup_bound']:.2f}x)"
            for wi in run["what_if"]
        )
        lines.append("")
    return "\n".join(lines).rstrip()
