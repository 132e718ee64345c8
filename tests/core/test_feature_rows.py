"""Parity: array-built Eq. (2) rows against the record-level extractor.

``feature_rows`` builds what-if feature rows straight from
``FleetState`` columns; ``FeatureExtractor.extract`` over a
``record_for_host`` record is the reference that mirrors the paper.
Every row must be bitwise equal to its reference, for each placement
shape the fleet can reach.
"""

import numpy as np
import pytest

from repro.core.features import FeatureExtractor, feature_rows
from repro.core.records import ExperimentRecord, VmRecord
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import ConstantTask, Task
from repro.errors import FeatureError
from repro.experiments.scenarios import (
    build_fleet_simulation,
    class_balanced_fleet_scenario,
    cooling_failure_scenario,
    diurnal_fleet_scenario,
    flash_crowd_scenario,
    migration_storm_scenario,
    model_drift_scenario,
    thermal_cascade_scenario,
)
from repro.management.whatif import record_for_host
from repro.scenarios import ScenarioFuzzer
from tests.conftest import make_server_spec, make_vm

ENV_C = 23.7
EXTRACTOR = FeatureExtractor()


class QuantumTask(Task):
    """A task whose kind the feature extractor does not know."""

    kind = "quantum"

    def utilization(self, time_s: float) -> float:
        return 0.5

    def nominal_utilization(self) -> float:
        return 0.5


def cluster_of(n=3) -> Cluster:
    cluster = Cluster("rows")
    for i in range(n):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    return cluster


def assert_rows_match(cluster, triples, env_c=ENV_C):
    """Array rows for (server, removed VM, added VM) triples equal the
    extractor over the matching reference records, bit for bit."""
    state = cluster.fleet_state
    records = [
        record_for_host(
            server,
            env_c,
            extra_vm=added,
            without_vm=removed.name if removed is not None else None,
        )
        for server, removed, added in triples
    ]
    rows = feature_rows(
        state,
        [server._slot for server, _, _ in triples],
        [vm._slot if vm is not None else -1 for _, vm, _ in triples],
        [vm._slot if vm is not None else -1 for _, _, vm in triples],
        env_c,
    )
    expected = np.vstack([EXTRACTOR.extract(record) for record in records])
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def every_triple(cluster, added_per_server=2):
    """Each host as is, without each hosted VM, and with (and swapping
    in) VMs hosted elsewhere."""
    servers = cluster.servers
    hosted = [vm for server in servers for vm in server.vms.values()]
    triples = []
    for i, server in enumerate(servers):
        triples.append((server, None, None))
        for vm in server.vms.values():
            triples.append((server, vm, None))
        guests = [vm for vm in hosted if vm.name not in server.vms]
        for vm in guests[i % max(len(guests), 1):][:added_per_server]:
            triples.append((server, None, vm))
            for removed in list(server.vms.values())[:1]:
                triples.append((server, removed, vm))
    return triples


class TestExtractSummation:
    def test_memory_total_is_a_left_fold(self):
        vms = tuple(
            VmRecord(vcpus=1, memory_gb=0.1, task_kinds=(), nominal_utilization=0.0)
            for _ in range(10)
        )
        record = ExperimentRecord(
            theta_cpu_cores=16,
            theta_cpu_ghz=38.4,
            theta_memory_gb=64.0,
            theta_fan_count=4,
            theta_fan_speed=0.7,
            delta_env_c=22.0,
            vms=vms,
        )
        column = EXTRACTOR.feature_names.index("total_vm_memory_gb")
        assert EXTRACTOR.extract(record)[column] == 0.9999999999999999

    def test_array_rows_fold_the_same_way(self):
        # Past eight terms a pairwise or compensated sum rounds differently.
        cluster = cluster_of(1)
        server = cluster.server("s0")
        for i in range(10):
            server.host_vm(make_vm(f"v{i}", vcpus=1, memory_gb=0.1, level=0.1))
        column = EXTRACTOR.feature_names.index("total_vm_memory_gb")
        row = feature_rows(cluster.fleet_state, [server._slot], [-1], [-1], ENV_C)[0]
        assert row[column] == 0.9999999999999999
        assert_rows_match(cluster, every_triple(cluster))


class TestRowParity:
    def test_empty_host(self):
        cluster = cluster_of(2)
        cluster.server("s1").host_vm(make_vm("a", vcpus=3, level=0.7))
        empty = cluster.server("s0")
        assert_rows_match(
            cluster, [(empty, None, None), (empty, None, cluster.server("s1").vms["a"])]
        )

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_remove_first_middle_last_slot(self, position):
        cluster = cluster_of(1)
        server = cluster.server("s0")
        for i in range(5):
            server.host_vm(
                make_vm(f"v{i}", vcpus=1 + i % 3, memory_gb=0.1 + 1.7 * i,
                        level=0.13 * (i + 1), n_tasks=1 + i % 2)
            )
        removed = list(server.vms.values())[position]
        assert_rows_match(cluster, [(server, removed, None), (server, None, None)])

    def test_terminated_vm_still_hosted(self):
        cluster = cluster_of(2)
        server = cluster.server("s0")
        server.host_vm(make_vm("live", level=0.4))
        server.host_vm(make_vm("dead", vcpus=4, level=0.9))
        server.vms["dead"].terminate()
        assert_rows_match(cluster, every_triple(cluster))

    def test_vm_attached_mid_migration_to_both_hosts(self):
        cluster = cluster_of(2)
        source, destination = cluster.server("s0"), cluster.server("s1")
        source.host_vm(make_vm("mover", vcpus=2, level=0.8))
        source.host_vm(make_vm("stay", vcpus=1, level=0.3))
        destination.host_vm(make_vm("resident", level=0.5))
        mover = source.vms["mover"]
        mover.begin_migration()
        destination.attach_migrating_vm(mover)
        assert "mover" in source.vms and "mover" in destination.vms
        assert_rows_match(cluster, every_triple(cluster) + [
            (source, mover, None), (destination, mover, None),
        ])

    def test_vm_replaced_after_unplace(self):
        cluster = cluster_of(2)
        server = cluster.server("s0")
        for i in range(3):
            server.host_vm(make_vm(f"v{i}", vcpus=1 + i, memory_gb=0.3 * (i + 1),
                                   level=0.2 + 0.1 * i))
        vm = server.remove_vm("v0")
        vm.begin_migration()
        server.attach_migrating_vm(vm)
        assert list(server.vms) == ["v1", "v2", "v0"]
        assert_rows_match(cluster, every_triple(cluster))

    def test_fan_state_change(self):
        cluster = cluster_of(2)
        server = cluster.server("s0")
        server.host_vm(make_vm("a", vcpus=4, level=0.9))
        server.set_fan_speed(0.93)
        server.set_fan_count(7)
        assert_rows_match(cluster, every_triple(cluster))

    def test_guest_vm_outside_the_state(self):
        cluster = cluster_of(2)
        cluster.server("s0").host_vm(make_vm("a", vcpus=2, level=0.45))
        guest = make_vm("incoming", vcpus=3, memory_gb=2.5, level=0.35, n_tasks=2)
        state = cluster.fleet_state
        slots = [server._slot for server in cluster.servers]
        rows = feature_rows(
            state, slots, [-1, -1], [state.n_vms] * 2, ENV_C, guests=(guest.spec,)
        )
        expected = np.vstack([
            EXTRACTOR.extract(record_for_host(server, ENV_C, extra_vm=guest))
            for server in cluster.servers
        ])
        assert rows.tobytes() == expected.tobytes()

    def test_unknown_task_kind_raises_on_both_paths(self):
        cluster = cluster_of(2)
        server = cluster.server("s0")
        server.host_vm(make_vm("known"))
        odd = Vm(VmSpec(name="odd", vcpus=2, memory_gb=4.0,
                        tasks=(ConstantTask(level=0.3), QuantumTask())))
        server.host_vm(odd)
        state = cluster.fleet_state
        with pytest.raises(FeatureError, match="quantum"):
            EXTRACTOR.extract(record_for_host(server, ENV_C))
        with pytest.raises(FeatureError, match="quantum"):
            feature_rows(state, [server._slot], [-1], [-1], ENV_C)
        with pytest.raises(FeatureError, match="quantum"):
            feature_rows(state, [1], [-1], [odd._slot], ENV_C)
        # Without the odd VM both paths succeed and agree.
        assert_rows_match(cluster, [(server, odd, None)])


FLEET_BUILDERS = [
    diurnal_fleet_scenario,
    class_balanced_fleet_scenario,
    model_drift_scenario,
    migration_storm_scenario,
    cooling_failure_scenario,
    thermal_cascade_scenario,
    flash_crowd_scenario,
]


@pytest.mark.parametrize("builder", FLEET_BUILDERS, ids=lambda b: b.__name__)
def test_library_fleets_row_parity(builder):
    sim = build_fleet_simulation(builder())
    assert_rows_match(sim.cluster, every_triple(sim.cluster, added_per_server=1))


@pytest.mark.parametrize("seed", range(1, 6))
def test_fuzzed_fleets_row_parity_through_a_run(seed):
    """Checked every 60 simulated seconds while the fuzzed scenario's
    arrivals, migrations and ambient events play out."""
    scenario = ScenarioFuzzer().scenario(seed)
    sim = build_fleet_simulation(scenario)
    checks = []

    def probe(sim, time_s):
        assert_rows_match(sim.cluster, every_triple(sim.cluster))
        checks.append(time_s)

    sim.add_probe(probe, interval_s=60.0)
    sim.run(scenario.duration_s)
    assert len(checks) >= 2
