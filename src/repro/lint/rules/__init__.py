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

#: family letter -> the rule ids its check reports.  A ``--rule`` filter
#: must match one of them (see ``repro.lint.engine``).
RULE_IDS = {
    "D": ("D101", "D102", "D103", "D104"),
    "F": ("F601", "F602", "F603"),
    "C": ("C301", "C302", "C303"),
    "K": ("K401", "K402", "K403", "K404"),
    "P": ("P701", "P702", "P703"),
    "S": ("S501", "S502"),
}

__all__ = ["ALL_RULES", "RULE_IDS"]
