"""The full workload x approach matrix.

Every benchmark workload under every Table 1 strategy, migrated
mid-execution: the workload completes, the migration completes, and the
destination converges to the guest's content clock.  Each cell exercises
a genuinely different interleaving (sequential rewrite, async double
buffering, random transactional I/O).
"""

import numpy as np
import pytest

from repro.core import APPROACHES
from repro.workloads.asyncwr import AsyncWRWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import MixedOLTP
from tests.conftest import deploy_small_vm

MB = 2**20

ALL = sorted(APPROACHES)


def make_ior(vm):
    return IORWorkload(vm, iterations=3, file_size=32 * MB, op_size=8 * MB,
                       file_offset=64 * MB, n_regions=1)


def make_asyncwr(vm):
    return AsyncWRWorkload(vm, iterations=12, data_per_iter=2 * MB,
                           io_pressure=2e6, file_offset=64 * MB, n_slots=4)


def make_oltp(vm):
    return MixedOLTP(vm, transactions=40, think_time=0.02,
                     region_offset=64 * MB, region_size=128 * MB, seed=9)


WORKLOADS = {
    "ior": make_ior,
    "asyncwr": make_asyncwr,
    "oltp": make_oltp,
}


@pytest.mark.parametrize("approach", ALL)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_matrix(small_cloud, approach, workload):
    env, cloud = small_cloud
    vm = deploy_small_vm(cloud, approach, working_set=32 * MB)
    wl = WORKLOADS[workload](vm)
    wl.start()
    done = {}

    def migrator():
        yield env.timeout(1.5)
        done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run(until=600.0)

    rec = done["rec"]
    assert rec.released_at is not None, "migration never completed"
    assert wl.finished_at is not None, "workload never completed"
    assert vm.node is cloud.cluster.node(1)

    clock = vm.content_clock
    written = clock > 0
    assert written.any()
    np.testing.assert_array_equal(
        vm.manager.chunks.version[written], clock[written]
    )
    assert vm.manager.chunks.present[written].all()
