"""Tests for VMInstance: placement, pausing, content clock, couplings."""

import numpy as np
import pytest

from repro.hypervisor.vm import VMInstance
from repro.simkernel import Environment


def make_vm(**kwargs):
    env = Environment()
    vm = VMInstance(env, "vm0", **kwargs)
    return env, vm


def test_working_set_validation():
    env = Environment()
    with pytest.raises(ValueError):
        VMInstance(env, "bad", memory_size=100, working_set=200)


def test_content_clock_requires_placement():
    env, vm = make_vm()
    with pytest.raises(RuntimeError):
        _ = vm.content_clock


class _FakeChunks:
    n_chunks = 16


class _FakeManager:
    chunks = _FakeChunks()
    write_memory_churn = 0.0
    fabric = None


def test_place_initializes_clock():
    env, vm = make_vm()
    vm.place("node", _FakeManager())
    assert vm.content_clock.shape == (16,)
    assert (vm.content_clock == 0).all()


def test_bump_content_monotone():
    env, vm = make_vm()
    vm.place("node", _FakeManager())
    v1 = vm.bump_content(np.array([0, 1]))
    v2 = vm.bump_content(np.array([1, 2]))
    assert v1.tolist() == [1, 1]
    assert v2.tolist() == [2, 1]


class TestPause:
    def test_double_pause_rejected(self):
        env, vm = make_vm()
        vm.pause()
        with pytest.raises(RuntimeError):
            vm.pause()

    def test_resume_unpaused_rejected(self):
        env, vm = make_vm()
        with pytest.raises(RuntimeError):
            vm.resume()

    def test_paused_time_accounting(self):
        env, vm = make_vm()

        def pauser():
            yield env.timeout(1.0)
            vm.pause()
            yield env.timeout(0.5)
            vm.resume()

        env.process(pauser())
        env.run()
        assert vm.paused_time == pytest.approx(0.5)

    def test_check_paused_blocks(self):
        env, vm = make_vm()
        log = []

        def guest():
            yield env.timeout(1.0)
            yield from vm.check_paused()
            log.append(env.now)

        def pauser():
            vm.pause()
            yield env.timeout(3.0)
            vm.resume()

        env.process(guest())
        env.process(pauser())
        env.run()
        assert log == [3.0]

    def test_compute_stretched_by_pause_at_end(self):
        env, vm = make_vm()
        vm.place("node", _FakeManager())
        vm.cpu_coupling = 0.0
        log = []

        def guest():
            yield from vm.compute(2.0)
            log.append(env.now)

        def pauser():
            yield env.timeout(1.0)
            vm.pause()
            yield env.timeout(5.0)
            vm.resume()

        env.process(guest())
        env.process(pauser())
        env.run()
        # Compute finishes at t=2 but the VM is paused until t=6.
        assert log == [6.0]


class TestWriteRateTracking:
    def test_recent_write_rate_windowed(self):
        env, vm = make_vm()

        def writer():
            vm.note_write(50.0)
            yield env.timeout(1.0)
            vm.note_write(50.0)

        env.process(writer())
        env.run()
        # 100 bytes within the 5 s window.
        assert vm.recent_write_rate() == pytest.approx(100.0 / 5.0)

    def test_old_writes_fall_out_of_window(self):
        env, vm = make_vm()

        def writer():
            vm.note_write(100.0)
            yield env.timeout(10.0)

        env.process(writer())
        env.run()
        assert vm.recent_write_rate() == 0.0

    def test_dirty_rate_includes_churn(self):
        env, vm = make_vm()

        class ChurnyManager(_FakeManager):
            write_memory_churn = 2.0

        vm.place("node", ChurnyManager())
        vm.dirty_rate_base = 10.0
        vm.note_write(25.0)
        # churn = 2.0 * (25/5) = 10 -> total 20.
        assert vm.dirty_rate == pytest.approx(20.0)

    def test_dirty_rate_capped_at_working_set(self):
        env, vm = make_vm(memory_size=1000.0, working_set=100.0)
        vm.place("node", _FakeManager())
        vm.dirty_rate_base = 1e9
        assert vm.dirty_rate == 100.0


class TestCpuCoupling:
    def test_compute_slowed_by_nic_load(self):
        from repro.netsim import Fabric, Topology

        env = Environment()
        topo = Topology()
        a = topo.add_host("a", 100.0)
        b = topo.add_host("b", 100.0)
        fabric = Fabric(env, topo, latency=0.0)
        vm = VMInstance(env, "vm0")
        vm.cpu_coupling = 1.0

        class Mgr(_FakeManager):
            pass

        mgr = Mgr()
        mgr.fabric = fabric

        class Node:
            host = a
            name = "a"

        vm.place(Node(), mgr)
        log = []

        def guest():
            # Saturate the egress NIC, then compute: utilization = 0.5
            # (100 of 200 total NIC capacity) -> factor 1.5.
            fabric.transfer(a, b, 1e6)
            yield from vm.compute(2.0)
            log.append(env.now)

        env.process(guest())
        env.run(until=10.0)
        assert log == [pytest.approx(3.0)]

    def test_compute_on_a_host_without_nic_capacity(self):
        """A crashed or partitioned host has zero NIC capacity; compute
        there runs unstretched instead of dividing by it."""
        from repro.netsim import Fabric, Topology

        env = Environment()
        topo = Topology()
        a = topo.add_host("a", 100.0)
        topo.add_host("b", 100.0)
        fabric = Fabric(env, topo, latency=0.0)
        topo.degrade_host(a, 0.0)
        vm = VMInstance(env, "vm0")
        vm.cpu_coupling = 1.0

        class Mgr(_FakeManager):
            pass

        mgr = Mgr()
        mgr.fabric = fabric

        class Node:
            host = a
            name = "a"

        vm.place(Node(), mgr)
        log = []

        def guest():
            yield from vm.compute(2.0)
            log.append(env.now)

        env.process(guest())
        env.run()
        assert log == [2.0]
