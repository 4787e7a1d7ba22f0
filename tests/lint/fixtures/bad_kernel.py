# simlint: module=repro.core.fixture
"""Real I/O and literal yields inside process generators: K rules fire."""


def leaky_process(env, path):
    print("migration starting")
    with open(path) as fh:
        header = fh.read()
    yield env.timeout(1)
    yield 42
    return header


def stuck_process(env):
    yield
