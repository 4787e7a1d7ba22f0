# simlint: module=repro.core.fixture
"""Observe-only telemetry probes: P stays quiet."""


class Migrator:
    def __init__(self, env, meter):
        self.env = env
        self.meter = meter
        self.retries = 0

    def step(self, nbytes):
        # Mutations happen in plain simulation code, outside any guard.
        self.retries += 1
        done = self.env.timeout(0.001)
        p = self.env.probe
        if p.enabled:
            # Reads of sim state, locals, and probe calls (including a
            # sub-recorder hanging off the probe) are all sanctioned.
            backlog = self.meter.total - nbytes
            p.window(self.env.now, nbytes, backlog)
            if p.causal is not None:
                p.causal.record_wait("migrator", 0, self.env.now, done)
        return done
