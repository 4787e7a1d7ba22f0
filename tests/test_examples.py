"""Smoke tests: every example script runs end-to-end and prints its
headline results.

Each example runs in this process, as ``__main__``, so a session-wide
kernel swap (``-p tests.differential.oracle``) reaches it too.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


@pytest.fixture
def run_example(capsys):
    """Run ``examples/<name>`` and return what it printed."""

    def run(name: str) -> str:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        return capsys.readouterr().out

    return run


def test_quickstart(run_example):
    out = run_example("quickstart.py")
    assert "migration time" in out
    assert "consistency check passed" in out


def test_datacenter_evacuation(run_example):
    out = run_example("datacenter_evacuation.py")
    assert "our-approach" in out and "precopy" in out
    assert "pin time" in out


def test_hpc_stencil_rebalancing(run_example):
    out = run_example("hpc_stencil_rebalancing.py")
    assert "BSP-amplified slowdown" in out
    assert "pvfs-shared" in out


def test_postcopy_memory_extension(run_example):
    out = run_example("postcopy_memory_extension.py")
    assert "pre-copy" in out and "post-copy" in out
    assert "time to control" in out


def test_trace_a_migration(run_example):
    out = run_example("trace_a_migration.py")
    assert "migration traced" in out
    assert "trace events recorded" in out
    assert "push.chunks" in out
    assert "load it in Perfetto" in out
