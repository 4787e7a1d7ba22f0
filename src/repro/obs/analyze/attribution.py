"""Per-cause byte attribution with an exact conservation check.

The ground truth is the ``traffic.snapshot`` instant the
:class:`~repro.obs.Observability` emits at the end of every run: the
TrafficMeter's raw ``{(tag, cause): bytes}`` pair matrix.  Per-tag and
per-cause views are two groupings of those same pairs, so conservation
("attributed bytes sum to the meter total") can be checked *exactly*:
the pair values are exact binary floats, and summing them as
:class:`fractions.Fraction` removes the only source of inexactness
(float addition order).  The check is therefore independent of grouping
order and either passes exactly or names the residual.

The time dimension (traced flow spans) lives in
:mod:`repro.obs.analyze.flows`, outside exact scope.
"""

from __future__ import annotations

# simlint: exact -- conservation must hold with zero residual
from fractions import Fraction
from typing import Iterable

__all__ = ["attribution_from_pairs"]


def _exact_sum(values: Iterable[float]) -> Fraction:
    return sum((Fraction(v) for v in values), Fraction(0))


def attribution_from_pairs(pairs: list) -> dict:
    """Attribution views + conservation verdict from ``[[tag, cause, bytes]]``.

    Returned bytes are floats (for JSON), but the conservation check is
    performed on exact rationals; ``conservation.exact`` is True iff
    the per-cause and per-tag groupings both sum to the total with zero
    residual (which, by construction, they must — a failure means the
    snapshot itself is corrupt or hand-edited).
    """
    by_tag: dict[str, Fraction] = {}
    by_cause: dict[str, Fraction] = {}
    for tag, cause, nbytes in pairs:
        frac = Fraction(float(nbytes))
        by_tag[tag] = by_tag.get(tag, Fraction(0)) + frac
        by_cause[cause] = by_cause.get(cause, Fraction(0)) + frac
    total = _exact_sum(float(nbytes) for _t, _c, nbytes in pairs)
    # Sum the groupings as rationals (NOT their float-rounded JSON views:
    # rounding each group first can miss by an ulp on honest data).
    cause_sum = sum(by_cause.values(), Fraction(0))
    tag_sum = sum(by_tag.values(), Fraction(0))
    return {
        "pairs": [[t, c, float(b)] for t, c, b in pairs],
        "by_tag": {t: float(v) for t, v in sorted(by_tag.items())},
        "by_cause": {c: float(v) for c, v in sorted(by_cause.items())},
        "total_bytes": float(total),
        "conservation": {
            "exact": cause_sum == total and tag_sum == total,
            "total_bytes": float(total),
            "cause_sum_bytes": float(cause_sum),
            "tag_sum_bytes": float(tag_sum),
            "residual_bytes": float(abs(cause_sum - total) + abs(tag_sum - total)),
        },
    }
