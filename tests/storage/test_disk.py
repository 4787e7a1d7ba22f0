"""Tests for LocalDisk (fluid disk + warm cache) and PageCache."""

import math

import pytest

from repro.simkernel import Environment
from repro.storage.disk import LocalDisk
from repro.storage.pagecache import PageCache


def test_cold_io_takes_bandwidth_time():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0)
    done = []

    def proc():
        yield disk.io(500.0, chunks=[0, 1])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]
    assert disk.disk_bytes == 500.0


def test_warm_chunks_bypass_platter():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=1000.0, chunk_size=100)
    disk.touch([0, 1])
    ev = disk.io(200.0, chunks=[0, 1])
    assert ev.triggered  # no disk time at all
    assert disk.cache_hits_bytes == 200.0
    assert disk.disk_bytes == 0.0


def test_partial_warmth_scales_cold_bytes():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=1000.0, chunk_size=100)
    disk.touch([0])
    done = []

    def proc():
        yield disk.io(200.0, chunks=[0, 1])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [1.0]  # only chunk 1's 100 B hit the platter


def test_lru_eviction():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=200.0, chunk_size=100)
    disk.touch([0, 1])
    disk.touch([2])  # evicts 0
    assert not disk.is_warm(0)
    assert disk.is_warm(1) and disk.is_warm(2)


def test_touch_refreshes_lru_position():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=200.0, chunk_size=100)
    disk.touch([0, 1])
    disk.touch([0])  # 0 is now MRU
    disk.touch([2])  # evicts 1, not 0
    assert disk.is_warm(0) and not disk.is_warm(1)


def test_zero_cache_never_warm():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=0.0)
    disk.touch([0])
    assert not disk.is_warm(0)


def test_evict_all():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=1000.0, chunk_size=100)
    disk.touch([0, 1, 2])
    disk.evict_all()
    assert disk.warm_fraction([0, 1, 2]) == 0.0


def test_io_without_chunks_is_cold():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0, cache_bytes=1000.0)
    done = []

    def proc():
        yield disk.io(100.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [1.0]


def test_concurrent_io_shares_disk():
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0)
    times = []

    def proc(tag):
        yield disk.io(100.0, chunks=[tag])
        times.append(env.now)

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    assert times == [2.0, 2.0]


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        LocalDisk(env, bandwidth=100.0, cache_bytes=-1.0)
    disk = LocalDisk(env, bandwidth=100.0)
    with pytest.raises(ValueError):
        disk.io(-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_io_rejected_before_accounting(bad):
    env = Environment()
    disk = LocalDisk(env, bandwidth=100.0)
    with pytest.raises(ValueError):
        disk.io(bad, chunks=[0])
    with pytest.raises(ValueError):
        disk.io(100.0, chunks=[0], weight=bad)
    assert disk.disk_bytes == disk.cache_hits_bytes == 0.0
    assert disk.warm_fraction([0]) == 0.0


class TestPageCache:
    def test_read_rate(self):
        env = Environment()
        pc = PageCache(env, read_bw=1000.0, write_bw=100.0)
        done = []

        def proc():
            yield pc.read(500.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.5]

    def test_write_rate(self):
        env = Environment()
        pc = PageCache(env, read_bw=1000.0, write_bw=100.0)
        done = []

        def proc():
            yield pc.write(500.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0]

    def test_reads_and_writes_independent(self):
        env = Environment()
        pc = PageCache(env, read_bw=100.0, write_bw=100.0)
        times = {}

        def reader():
            yield pc.read(100.0)
            times["r"] = env.now

        def writer():
            yield pc.write(100.0)
            times["w"] = env.now

        env.process(reader())
        env.process(writer())
        env.run()
        assert times == {"r": 1.0, "w": 1.0}
