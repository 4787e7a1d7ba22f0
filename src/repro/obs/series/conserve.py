"""Fraction-exact step integration and series-vs-meter conservation.

The recorder's ``net.<tag>`` signals are cumulative byte curves built by
mirroring every ``TrafficMeter.add`` credit.  This module holds the
exact side of that contract: the step-integral of a cumulative curve is
a telescoping Fraction sum of successive deltas, so it collapses to the
final sample with zero rounding — and the conservation check compares
that against the meter's tag total as exact rationals, never floats.

The module is exact scope (``simlint`` F rules): it computes no floats,
so every value below is a sample it read or a Fraction built from one.
"""

from __future__ import annotations

# simlint: exact -- the series integral must equal the meter total exactly
from fractions import Fraction
from typing import Protocol

__all__ = ["step_integral", "integral_check", "TrafficMeterLike"]


class TrafficMeterLike(Protocol):
    """The sliver of TrafficMeter the conservation check reads."""

    def by_tag(self) -> dict: ...


def step_integral(points: list) -> Fraction:
    """Exact integral of a step-held rate whose cumulative is ``points``.

    ``points`` is the recorder's ``[[t, cumulative], ...]`` list.  The
    rate over each interval is ``delta / dt`` and its integral over the
    interval is ``delta`` back again, so the total integral telescopes:
    it equals the last cumulative sample exactly, computed here the long
    way (sum of interval deltas on Fractions) so tests pin the identity
    rather than assume it.
    """
    total = Fraction(0)
    prev = Fraction(0)
    for _t, value in points:
        cur = Fraction(value)
        total += cur - prev
        prev = cur
    return total


def integral_check(series_totals: dict, meter_totals: dict) -> dict:
    """Compare per-tag series totals against TrafficMeter totals exactly.

    Both sides are converted to ``Fraction`` (floats convert exactly —
    no tolerance, no rounding).  A tag present on either side only is a
    violation unless its counterpart is exactly zero: a missed probe
    site must not pass silently.
    """
    ok = True
    by_tag: dict[str, dict] = {}
    for tag in sorted(set(series_totals) | set(meter_totals)):
        s = Fraction(series_totals.get(tag, 0))
        m = Fraction(meter_totals.get(tag, 0))
        exact = s == m
        ok = ok and exact
        by_tag[tag] = {
            "series_total": series_totals.get(tag, 0),
            "meter_total": meter_totals.get(tag, 0),
            "exact": exact,
        }
    return {"ok": ok, "by_tag": by_tag}
