# simlint: module=repro.core.fixture
"""Event-typed yields and accounted spawns: the K upgrade stays quiet."""


def tidy_process(env, fabric, h0, h1):
    # Locals bound from Event factories are provably yieldable.
    pause = env.timeout(1)
    yield pause
    push = fabric.transfer(h0, h1, 4096, tag="storage-push", cause="push")
    race = push | env.timeout(30)
    yield race


def spawner(env, work, reaper):
    # Bound and awaited: the failure path propagates.
    done = env.process(work())
    # A deliberate fire-and-forget still binds its handle.
    reaping = env.process(reaper())
    yield done
    return reaping
