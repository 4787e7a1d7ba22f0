"""Rule registry: one module per family, one ``check`` entry point each."""

from __future__ import annotations

from repro.lint.rules import (
    causetags,
    determinism,
    floattaint,
    kernelsafety,
    probes,
    structure,
)

#: family letter -> check(ctx) callable.  Order is the report order for
#: same-location findings.  F checks exact scope by syntax alone: exact
#: modules compute no floats, so each float origin is flagged where it
#: is written rather than traced to where it lands.
ALL_RULES = {
    "D": determinism.check,
    "F": floattaint.check,
    "C": causetags.check,
    "K": kernelsafety.check,
    "P": probes.check,
    "S": structure.check,
}

__all__ = ["ALL_RULES"]
