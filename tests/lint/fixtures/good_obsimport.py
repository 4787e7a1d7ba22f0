# simlint: module=repro.netsim.fixture
"""The probe, and annotation-only obs imports — S503 stays quiet."""

from typing import TYPE_CHECKING

from repro.obs.probe import NULL_PROBE

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer


def traced(tracer: "Tracer"):
    return tracer, NULL_PROBE.enabled
