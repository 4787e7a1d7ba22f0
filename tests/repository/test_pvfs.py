"""Tests for the PVFS baseline model."""

import pytest

from repro.netsim import Fabric, Topology
from repro.repository.pvfs import PVFS
from repro.simkernel import Environment


def make_pvfs(n_servers=4, nic=100.0, write_bw=10.0, stripe_width=2):
    env = Environment()
    topo = Topology()
    servers = [topo.add_host(f"s{i}", nic_out=nic) for i in range(n_servers)]
    client = topo.add_host("c0", nic_out=nic)
    fabric = Fabric(env, topo, latency=0.0)
    fs = PVFS(env, fabric, servers, chunk_size=100,
              client_write_bw=write_bw, stripe_width=stripe_width)
    return env, fabric, fs, client


def test_validation():
    env, fabric, fs, client = make_pvfs()
    with pytest.raises(ValueError):
        PVFS(env, fabric, [], chunk_size=100)
    with pytest.raises(ValueError):
        PVFS(env, fabric, fs.servers, chunk_size=100, client_write_bw=0)
    with pytest.raises(ValueError):
        PVFS(env, fabric, fs.servers, chunk_size=100, stripe_width=0)
    with pytest.raises(ValueError):
        fs.read(client, -1)


def test_read_is_network_bound():
    env, fabric, fs, client = make_pvfs()
    done = []

    def proc():
        yield fs.read(client, 200.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    # 200 B over 2 stripes into a 100 B/s NIC -> 2 s.
    assert done == [pytest.approx(2.0)]
    assert fabric.meter.bytes("pvfs-io") == pytest.approx(200.0)


def test_write_bound_by_client_ceiling():
    env, fabric, fs, client = make_pvfs(write_bw=10.0)
    done = []

    def proc():
        yield fs.write(client, 100.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    # Network would take 1 s; the 10 B/s qcow2 sync ceiling takes 10 s.
    assert done == [pytest.approx(10.0)]


def test_write_network_bound_when_ceiling_ample():
    env, fabric, fs, client = make_pvfs(write_bw=1e9)
    done = []

    def proc():
        yield fs.write(client, 200.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [pytest.approx(2.0)]


def test_zero_io_instant():
    env, fabric, fs, client = make_pvfs()
    assert fs.read(client, 0).triggered
    assert fs.write(client, 0).triggered


def test_round_robin_striping_rotates():
    env, fabric, fs, client = make_pvfs(n_servers=4, stripe_width=2)
    first = fs._pick_servers()
    second = fs._pick_servers()
    assert [s.name for s in first] == ["s0", "s1"]
    assert [s.name for s in second] == ["s2", "s3"]


def test_bytes_written_accounting():
    env, fabric, fs, client = make_pvfs(write_bw=1e9)
    env.process(write_once(env, fs, client))
    env.run()
    assert fs.bytes_written == pytest.approx(500.0)


def write_once(env, fs, client):
    yield fs.write(client, 500.0)
