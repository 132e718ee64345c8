"""View-contract tests for the structure-of-arrays fleet state.

:class:`~repro.datacenter.fleetstate.FleetState` owns fleet truth in
contiguous arrays; ``Server``/``Vm``/``ServerThermalModel`` are thin
views once a cluster registers them. These tests pin the contract from
both directions — mutating through a view must be visible in the arrays,
and writing the arrays must be visible through the view — including
mid-migration lifecycle state and fan retunes, plus the committed
capacity counters staying bit-identical to re-summing the VM dict.
"""

import numpy as np
import pytest

from repro.datacenter.cluster import Cluster
from repro.datacenter.fleet_load import FleetLoadView
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.vm import RUNNING_CODES, STATE_CODES, Vm, VmSpec, VmState
from repro.datacenter.workload import ConstantTask, PeriodicTask
from repro.errors import SimulationError
from repro.rng import RngFactory


def make_server(name: str, cores: int = 16, memory_gb: float = 64.0) -> Server:
    return Server(
        ServerSpec(
            name=name,
            capacity=ResourceCapacity(
                cpu_cores=cores, ghz_per_core=2.4, memory_gb=memory_gb
            ),
        )
    )


def make_vm(name: str, vcpus: int = 2, memory_gb: float = 4.0) -> Vm:
    return Vm(
        VmSpec(
            name=name,
            vcpus=vcpus,
            memory_gb=memory_gb,
            tasks=(ConstantTask(level=0.5),),
        )
    )


@pytest.fixture()
def bound_cluster():
    """Two registered servers, one hosted VM each."""
    cluster = Cluster("view")
    for i in range(2):
        server = make_server(f"s{i}")
        server.host_vm(make_vm(f"vm{i}"), time_s=float(i))
        cluster.add_server(server)
    return cluster


class TestServerViewContract:
    def test_registration_binds_server_and_snapshots_capacity(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        assert s0._fs is fs and s0._slot == 0
        assert fs.n_servers == 2
        assert fs.memory_capacity_gb[0] == 64.0
        assert fs.cores[0] == 16.0
        # Pre-registration hosting carried into the arrays.
        assert fs.used_memory_gb[0] == 4.0
        assert fs.used_vcpus[0] == 2
        assert fs.n_running[0] == 1

    def test_host_vm_through_view_updates_arrays(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        s0.host_vm(make_vm("extra", vcpus=3, memory_gb=8.0), time_s=10.0)
        assert fs.used_vcpus[0] == 5
        assert fs.used_memory_gb[0] == 12.0
        assert fs.n_running[0] == 2
        slot = fs.vm_index["extra"]
        assert fs.vm_server[slot] == 0
        assert fs.vm_state_code[slot] == STATE_CODES[VmState.RUNNING]
        assert fs.vm_started_at_s[slot] == 10.0

    def test_remove_vm_through_view_updates_arrays(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        vm = s0.remove_vm("vm0")
        assert fs.used_vcpus[0] == 0
        assert fs.used_memory_gb[0] == 0.0
        assert fs.vm_server[fs.vm_index["vm0"]] == -1
        assert vm.name == "vm0"

    def test_array_write_visible_through_view(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s1 = bound_cluster.server("s1")
        fs.used_vcpus[1] = 7
        fs.used_memory_gb[1] = 31.5
        assert s1.used_vcpus == 7
        assert s1.used_memory_gb == 31.5

    def test_active_migrations_roundtrip(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        s0.active_migrations += 1
        assert fs.active_migrations[0] == 1
        fs.active_migrations[0] = 3
        assert s0.active_migrations == 3


class TestVmViewContract:
    def test_state_setter_writes_code(self, bound_cluster):
        fs = bound_cluster.fleet_state
        vm, _ = bound_cluster.find_vm("vm0")
        slot = fs.vm_index["vm0"]
        vm.begin_migration()
        assert fs.vm_state_code[slot] == STATE_CODES[VmState.MIGRATING]
        # MIGRATING still counts as running for load/overhead purposes.
        assert fs.vm_state_code[slot] in RUNNING_CODES
        assert fs.n_running[0] == 1

    def test_code_write_visible_through_view(self, bound_cluster):
        fs = bound_cluster.fleet_state
        vm, _ = bound_cluster.find_vm("vm1")
        fs.vm_state_code[fs.vm_index["vm1"]] = STATE_CODES[VmState.TERMINATED]
        assert vm.state is VmState.TERMINATED

    def test_mid_migration_attach_and_complete(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        s1 = bound_cluster.server("s1")
        vm = s0.remove_vm("vm0")
        vm.begin_migration()
        slot = fs.vm_index["vm0"]
        # In transit: MIGRATING, owned by no server.
        assert fs.vm_state_code[slot] == STATE_CODES[VmState.MIGRATING]
        assert fs.vm_server[slot] == -1
        assert fs.n_running[0] == 0
        # Attach completes the migration on the destination.
        s1.attach_migrating_vm(vm)
        assert fs.vm_server[slot] == 1
        assert fs.vm_state_code[slot] == STATE_CODES[VmState.RUNNING]
        assert fs.n_running[1] == 2
        assert vm.host_name == "s1"

    def test_terminated_vm_keeps_slot_and_committed_capacity(self, bound_cluster):
        fs = bound_cluster.fleet_state
        vm, s0 = bound_cluster.find_vm("vm0")
        vm.terminate()
        slot = fs.vm_index["vm0"]
        # Terminated VMs stay in the dict and keep committed capacity
        # (the admission model bills until the VM is removed).
        assert "vm0" in s0.vms
        assert fs.vm_server[slot] == 0
        assert fs.n_running[0] == 0
        assert s0.used_memory_gb == 4.0

    def test_started_at_roundtrip(self, bound_cluster):
        fs = bound_cluster.fleet_state
        vm, _ = bound_cluster.find_vm("vm0")
        vm.started_at_s = 123.5
        assert fs.vm_started_at_s[fs.vm_index["vm0"]] == 123.5
        fs.vm_started_at_s[fs.vm_index["vm0"]] = 7.25
        assert vm.started_at_s == 7.25


class TestThermalViewContract:
    def test_fan_retune_updates_arrays(self, bound_cluster):
        fs = bound_cluster.fleet_state
        s0 = bound_cluster.server("s0")
        before_gen = fs.generation
        s0.set_fan_speed(0.95)
        assert fs.fan_speed[0] == 0.95
        assert fs.generation > before_gen
        # Effective case resistance and fan power re-derived from the
        # retuned bank — the quantities the vectorized engine integrates.
        assert fs.r_case_eff[0] == s0.thermal._case_resistance()
        assert fs.p_case_fan_w[0] == s0.fans.power_w()

        s0.set_fan_count(6)
        assert fs.fan_count[0] == 6.0
        assert fs.r_case_eff[0] == s0.thermal._case_resistance()
        assert fs.p_case_fan_w[0] == s0.fans.power_w()

    def test_set_temperatures_roundtrip(self, bound_cluster):
        fs = bound_cluster.fleet_state
        plant = bound_cluster.server("s1").thermal
        plant.set_temperatures(55.0, 40.0)
        assert fs.t_cpu_c[1] == 55.0 and fs.t_case_c[1] == 40.0
        fs.t_cpu_c[1] = 61.25
        assert plant.cpu_temperature_c == 61.25

    def test_plant_step_reads_and_writes_arrays(self, bound_cluster):
        fs = bound_cluster.fleet_state
        plant = bound_cluster.server("s0").thermal
        fs.t_cpu_c[0] = 48.0
        fs.t_case_c[0] = 33.0
        plant.step(dt_s=1.0, utilization=0.5, ambient_c=22.0)
        assert fs.t_cpu_c[0] != 48.0  # integrated from the array state
        assert plant.cpu_temperature_c == fs.t_cpu_c[0]
        assert plant.time_s == 1.0
        assert fs.plant_time_s[0] == 1.0


class TestCommittedCounters:
    def test_counters_match_resummed_dict_bitwise(self):
        """Random arrivals/removals/terminations: committed counters are
        bit-identical to re-summing ``server.vms`` at every step."""
        rng = RngFactory(1234).stream("fleetstate/counters")
        cluster = Cluster("counters")
        servers = [make_server(f"s{i}", cores=32, memory_gb=256.0) for i in range(4)]
        for server in servers:
            cluster.add_server(server)
        counter = 0
        for _ in range(200):
            server = servers[rng.randint(0, len(servers) - 1)]
            action = rng.random()
            if action < 0.5 or not server.vms:
                vm = make_vm(
                    f"v{counter}",
                    vcpus=rng.randint(1, 4),
                    memory_gb=rng.choice([1.5, 2.0, 4.0, 7.25]),
                )
                counter += 1
                if server.can_host(vm):
                    server.host_vm(vm, time_s=float(counter))
            elif action < 0.75:
                name = list(server.vms)[rng.randint(0, len(server.vms) - 1)]
                server.remove_vm(name)
            else:
                name = list(server.vms)[rng.randint(0, len(server.vms) - 1)]
                if server.vms[name].state is not VmState.TERMINATED:
                    server.vms[name].terminate()
            for s in servers:
                expected_mem = sum(v.spec.memory_gb for v in s.vms.values())
                expected_vcpus = sum(v.spec.vcpus for v in s.vms.values())
                assert s.used_memory_gb == expected_mem
                assert s.used_vcpus == expected_vcpus

    def test_unbound_server_matches_bound_counters(self):
        """A server never registered with a cluster keeps identical
        committed counters through the same mutation sequence, and both
        bump the placement generation on every membership change (the
        absolute values may differ — bound bumps are more conservative)."""
        bound = make_server("b")
        unbound = make_server("u")
        Cluster("one").add_server(bound)

        def exercise(server: Server) -> list[tuple[float, int]]:
            trace = []
            vms = [make_vm(f"x{i}", vcpus=1 + i % 3, memory_gb=2.0 + i) for i in range(6)]
            generation = server.placement_generation
            for i, vm in enumerate(vms):
                server.host_vm(vm, time_s=float(i))
                assert server.placement_generation > generation
                generation = server.placement_generation
                trace.append((server.used_memory_gb, server.used_vcpus))
            vms[1].terminate()
            for name in ("x3", "x0"):
                server.remove_vm(name)
                assert server.placement_generation > generation
                generation = server.placement_generation
            trace.append((server.used_memory_gb, server.used_vcpus))
            return trace

        assert exercise(bound) == exercise(unbound)


class TestPlacementGeneration:
    def test_bumps_on_membership_changes(self, bound_cluster):
        s0 = bound_cluster.server("s0")
        g0 = s0.placement_generation
        s0.host_vm(make_vm("g1"), time_s=0.0)
        g1 = s0.placement_generation
        assert g1 > g0
        s0.remove_vm("g1")
        assert s0.placement_generation > g1

    def test_no_bump_on_running_migrating_transition(self, bound_cluster):
        """RUNNING ↔ MIGRATING keeps the running count — the overhead and
        demand inputs are unchanged, so no rebuild is forced."""
        fs = bound_cluster.fleet_state
        vm, _ = bound_cluster.find_vm("vm0")
        before = fs.placement_generation
        vm.begin_migration()
        vm.complete_migration("s0")
        assert fs.placement_generation == before

    def test_bump_on_terminate(self, bound_cluster):
        fs = bound_cluster.fleet_state
        vm, _ = bound_cluster.find_vm("vm0")
        before = fs.placement_generation
        vm.terminate()
        assert fs.placement_generation > before


class TestDoubleListing:
    """A VM attached mid-migration to a second host while the first
    still lists it: every server listing it keeps its running count,
    generation and load coherent with its own dict."""

    def assert_matches_server_loop(self, cluster, time_s=10.0):
        fs = cluster.fleet_state
        servers = cluster.servers
        assert fs.n_running[: fs.n_servers].tolist() == [
            len(server.running_vms()) for server in servers
        ]
        assert FleetLoadView(fs).utilizations(time_s).tolist() == [
            server.current_load(time_s).utilization for server in servers
        ]
        for slot, vm in enumerate(fs.vm_objects):
            owner = fs.vm_server[slot]
            if owner >= 0:
                assert vm.name in servers[owner].vms
            else:
                assert all(vm.name not in server.vms for server in servers)

    def double_listed(self):
        cluster = Cluster("double")
        for i in range(3):
            cluster.add_server(make_server(f"s{i}"))
        s0, s1 = cluster.server("s0"), cluster.server("s1")
        s0.host_vm(make_vm("mover"), time_s=0.0)
        s0.host_vm(make_vm("stay"), time_s=0.0)
        s1.host_vm(make_vm("resident"), time_s=0.0)
        mover = s0.vms["mover"]
        mover.begin_migration()
        s1.attach_migrating_vm(mover)
        return cluster, mover

    def test_remove_from_later_host_keeps_earlier_owner(self):
        cluster, mover = self.double_listed()
        fs = cluster.fleet_state
        s0 = cluster.server("s0")
        cluster.server("s1").remove_vm("mover")
        assert fs.vm_server[mover._slot] == s0._slot
        self.assert_matches_server_loop(cluster)
        before = s0.placement_generation
        mover.terminate()
        assert s0.placement_generation > before
        assert fs.n_running[s0._slot] == 1
        self.assert_matches_server_loop(cluster)

    def test_state_change_while_listed_twice(self):
        cluster, mover = self.double_listed()
        s0, s1 = cluster.server("s0"), cluster.server("s1")
        generations = s0.placement_generation, s1.placement_generation
        mover.terminate()
        assert s0.placement_generation > generations[0]
        assert s1.placement_generation > generations[1]
        self.assert_matches_server_loop(cluster)
        s0.remove_vm("mover")
        assert cluster.fleet_state.vm_server[mover._slot] == s1._slot
        s1.remove_vm("mover")
        assert cluster.fleet_state.vm_server[mover._slot] == -1
        self.assert_matches_server_loop(cluster)


class TestFindVm:
    def test_fast_path_matches_scan(self, bound_cluster):
        vm, server = bound_cluster.find_vm("vm1")
        assert vm.name == "vm1" and server.name == "s1"
        with pytest.raises(SimulationError):
            bound_cluster.find_vm("nope")

    def test_unhosted_vm_raises(self, bound_cluster):
        s0 = bound_cluster.server("s0")
        s0.remove_vm("vm0")
        with pytest.raises(SimulationError):
            bound_cluster.find_vm("vm0")

    def test_duplicate_names_fall_back_to_scan(self):
        cluster = Cluster("dup")
        a, b = make_server("a"), make_server("b")
        cluster.add_server(a)
        cluster.add_server(b)
        a.host_vm(make_vm("twin"), time_s=0.0)
        b.host_vm(make_vm("twin"), time_s=0.0)
        assert not cluster.fleet_state.vm_names_unique
        vm, server = cluster.find_vm("twin")
        assert server.name == "a"  # scan order: first hosting server wins


class TestCoversAndForeign:
    def test_covers_true_for_registered_cluster(self, bound_cluster):
        fs = bound_cluster.fleet_state
        assert fs.covers(list(bound_cluster.servers))

    def test_foreign_server_detected(self, bound_cluster):
        other = Cluster("other")
        shared = make_server("shared")
        other.add_server(shared)
        before = list(bound_cluster.servers)
        with pytest.raises(SimulationError, match="another cluster"):
            bound_cluster.add_server(shared)  # already bound elsewhere
        assert bound_cluster.servers == before
        assert bound_cluster.racks() == {"rack-0": [s.name for s in before]}
        assert bound_cluster.fleet_state.covers(before)

    def test_covers_false_after_plant_swap(self, bound_cluster):
        class CustomPlant:
            pass

        bound_cluster.server("s0").thermal = CustomPlant()
        assert not bound_cluster.fleet_state.covers(list(bound_cluster.servers))


class TestTaskArrays:
    def test_task_arrays_cached_until_generation_moves(self, bound_cluster):
        fs = bound_cluster.fleet_state
        first = fs.task_arrays()
        assert fs.task_arrays() is first
        s0 = bound_cluster.server("s0")
        s0.host_vm(
            Vm(
                VmSpec(
                    name="tasky",
                    vcpus=2,
                    memory_gb=2.0,
                    tasks=(PeriodicTask(mean=0.4, amplitude=0.1, period_s=60.0),),
                )
            ),
            time_s=0.0,
        )
        second = fs.task_arrays()
        assert second is not first
        assert second.per_vm.size == first.per_vm.size + 1

    def test_slot_space_indices_point_at_vm_slots(self, bound_cluster):
        fs = bound_cluster.fleet_state
        tasks = fs.task_arrays()
        # Both fixture VMs carry one ConstantTask each, indexed by slot.
        assert np.array_equal(np.sort(tasks.const_vm), np.arange(fs.n_vms))
