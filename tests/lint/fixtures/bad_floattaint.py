# simlint: module=repro.obs.analyze.fixture
# simlint: exact
"""Float origins in an exact module: each F rule fires where one is written."""

import math

from fractions import Fraction


def poisoned_fraction(raw):
    ratio = raw / 2.5            # F602 twice: true division, non-integral literal
    return Fraction(ratio * 3)   # F601: computed Fraction argument


def poisoned_accumulator(deltas):
    total = Fraction(0)
    for d in deltas:
        total += Fraction(math.sqrt(d))  # F601: a call is not a read
    total /= 2                   # F602: true division, even on a Fraction
    return total
