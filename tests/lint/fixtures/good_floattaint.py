# simlint: module=repro.obs.analyze.fixture
# simlint: exact
"""Float-free exact accounting: F stays quiet."""

from fractions import Fraction

from repro.obs.render import ratio


def exact_total(values):
    # Fraction end to end: sum seeded exactly, the half built as a Fraction.
    total = sum((Fraction(v) for v in values), Fraction(0))
    half = total * Fraction(1, 2)
    return total, half


def boundary_conversions(events, wall):
    # Floats enter as reads (float(<read>) converts exactly) and leave
    # through float() or ratio(), never through arithmetic here.
    total = Fraction(0)
    for ev in events:
        total += Fraction(float(ev["bytes"]))
    wall_s = Fraction(wall.get("seconds", 0))
    rate = ratio(total, wall_s) if wall_s else 0.0
    return {"total_bytes": float(total), "rate": rate}
