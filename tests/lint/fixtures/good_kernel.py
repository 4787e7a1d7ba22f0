# simlint: module=repro.core.fixture
"""Well-behaved process generators — K stays quiet.

Covers the exemptions: the ``return``-then-``yield`` empty-generator
idiom and decorated (non-process) generators.
"""

from contextlib import contextmanager


def clean_process(env, fabric, src, dst):
    yield env.timeout(1)
    yield fabric.transfer(src, dst, 100, tag="memory", cause="memory")


def optional_hook(env):
    return
    yield  # pragma: no cover


@contextmanager
def scoped(env):
    yield
