# simlint: module=repro.obs.prof.fixture
"""The host-time waiver is narrow: the profiler's scope silences
D101/D102 only.  Randomness (D103) and hash-order iteration (D104)
still fire — a profiler has no business drawing entropy or leaking set
order.
"""

import random
import time


def timed_sample():
    t0 = time.perf_counter()  # waived in the profiler's scope
    value = random.random()
    return time.perf_counter() - t0, value


def hash_order(counters):
    return [k for k in set(counters)]
