# simlint: module=repro.netsim.fixture
"""A simulation module importing an obs backend: S503 fires — the
probe is the one obs module simulation code may import."""

from repro.obs.causal.record import describe
from repro.obs.probe import NULL_PROBE


def described(event):
    return describe(event), NULL_PROBE.enabled
