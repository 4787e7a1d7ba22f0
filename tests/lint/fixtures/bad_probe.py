# simlint: module=repro.core.fixture
"""Impure telemetry probes: every P rule fires with a witness path."""


class Migrator:
    def __init__(self, env, meter):
        self.env = env
        self.meter = meter
        self.retries = 0

    def step(self, nbytes):
        p = self.env.probe
        if p.enabled:
            p.window(self.env.now, nbytes)
            self.retries += 1                     # P701: store to sim state
            self.env.timeout(0.001)               # P702: schedules an event
            self.meter.add(nbytes, cause="probe")  # P703: meter write

    def drain(self, nbytes):
        p = self.env.probe
        on = p.enabled
        if on:
            self.retries = 0                      # P701: flag-alias guard
