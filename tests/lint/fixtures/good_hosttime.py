# simlint: module=repro.obs.prof.fixture
"""Sanctioned host-time island: the self-profiler's module prefix is in
``HOST_TIME_MODULES``, so wall-clock reads (D101) and calendar time
(D102) are waived here.  Everything else about determinism still holds.
"""

import time


def scope_cost():
    t0 = time.perf_counter()
    return time.perf_counter() - t0


def stable_counter_order(counters):
    return [(k, counters[k]) for k in sorted(set(counters))]
