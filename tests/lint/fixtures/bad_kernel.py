# simlint: module=repro.core.fixture
"""Real I/O, literal yields and waits inside a fabric batch: K rules fire."""


def leaky_process(env, path):
    print("migration starting")
    with open(path) as fh:
        header = fh.read()
    yield env.timeout(1)
    yield 42
    return header


def stuck_process(env):
    yield


def batched_wait(env, fabric, src, dst):
    with fabric.batch():
        leg = fabric.transfer(src, dst, 100, tag="memory", cause="memory")
        yield leg
