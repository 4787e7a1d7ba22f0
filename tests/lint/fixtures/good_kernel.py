# simlint: module=repro.core.fixture
"""Well-behaved process generators — K stays quiet.

Covers the exemptions: the ``return``-then-``yield`` empty-generator
idiom and decorated (non-process) generators.  A fabric batch starts its
legs and the wait follows the block.
"""

from contextlib import contextmanager


def clean_process(env, fabric, src, dst):
    yield env.timeout(1)
    yield fabric.transfer(src, dst, 100, tag="memory", cause="memory")


def batched_fan_out(env, fabric, src, dsts):
    with fabric.batch():
        legs = [fabric.transfer(src, dst, 100, tag="memory", cause="memory")
                for dst in dsts]
    yield env.all_of(legs)


def optional_hook(env):
    return
    yield  # pragma: no cover


@contextmanager
def scoped(env):
    yield
