"""Parity of the load view's gather indices with a per-server loop.

:class:`~repro.datacenter.fleet_load.FleetLoadView` gathers per-VM
demand in the order each server's VMM sums it: server by server, and
within a server in dict-insertion order, running VMs only. It derives
that order with array operations over the fleet state. This test keeps
the per-server Python loop those replaced as its oracle and checks the
dense slots, the dense server indices and the generic-task list
against it, bit for bit, after every step of random sequences of
placements, removals, migrations, lifecycle changes, re-placements
after removal (which go to the end of a dict), VMs attached
mid-migration to a second host (listed in both dicts), terminated VMs
left in a dict, and VMs carrying stateful (generic) tasks. The in-place-grown ``task_arrays`` are
checked against a rebuild from per-family Python lists at each step.
"""

import numpy as np
import pytest

from repro.datacenter.cluster import Cluster
from repro.datacenter.fleet_load import FleetLoadView
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.vm import RUNNING_CODES, Vm, VmSpec, VmState
from repro.datacenter.workload import (
    BurstyTask,
    ConstantTask,
    PeriodicTask,
    RampTask,
    Task,
)
from repro.rng import RngStream

N_SERVERS = 5
N_OPS = 300


class StepTask(Task):
    """A user-defined task the closed-form families do not cover."""

    kind = "step"

    def __init__(self, level: float) -> None:
        self.level = level

    def utilization(self, time_s: float) -> float:
        return self.level if time_s > 30.0 else 0.0

    def nominal_utilization(self) -> float:
        return self.level


def loop_indices(fs):
    """The per-server loop the array derivation replaced."""
    dense_slots: list[int] = []
    dense_server: list[int] = []
    generic: list[tuple[int, object]] = []
    for s_idx in range(fs.n_servers):
        for slot in fs.server_vm_slots[s_idx]:
            if fs.vm_state_code[slot] in RUNNING_CODES:
                dense_slots.append(slot)
                dense_server.append(s_idx)
                for task in fs.generic_tasks.get(slot, ()):
                    generic.append((slot, task))
    return (
        np.array(dense_slots, dtype=np.intp),
        np.array(dense_server, dtype=np.intp),
        generic,
    )


def rebuilt_task_arrays(fs) -> dict[str, np.ndarray]:
    """Every task column rebuilt from per-family Python lists."""
    lists: dict[str, list] = {
        name: []
        for name in (
            "const_vm const_level per_vm per_mean per_amp per_period "
            "per_phase ramp_vm ramp_start ramp_end ramp_s"
        ).split()
    }
    for slot, vm in enumerate(fs.vm_objects):
        for task in vm.spec.tasks:
            if type(task) is ConstantTask:
                lists["const_vm"].append(slot)
                lists["const_level"].append(task.level)
            elif type(task) is PeriodicTask:
                lists["per_vm"].append(slot)
                lists["per_mean"].append(task.mean)
                lists["per_amp"].append(task.amplitude)
                lists["per_period"].append(task.period_s)
                lists["per_phase"].append(task.phase_s)
            elif type(task) is RampTask:
                lists["ramp_vm"].append(slot)
                lists["ramp_start"].append(task.start_level)
                lists["ramp_end"].append(task.end_level)
                lists["ramp_s"].append(task.ramp_s)
    arrays = {
        name: np.array(values, dtype=np.intp if name.endswith("_vm") else float)
        for name, values in lists.items()
    }
    arrays["ramp_span"] = arrays["ramp_end"] - arrays["ramp_start"]
    return arrays


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def check(view: FleetLoadView, cluster: Cluster) -> None:
    fs = view.fs
    for i, server in enumerate(cluster.servers):
        # The oracle's input is the dict order itself.
        assert fs.server_vm_slots[i] == [vm._slot for vm in server.vms.values()]
    # The derivation itself, not the generation-keyed cache around it.
    view._refresh()
    slots, server_idx, generic = loop_indices(fs)
    assert_bitwise(view._dense_slots, slots)
    assert_bitwise(view._dense_server, server_idx)
    assert [(s, id(t)) for s, t in view._generic] == [(s, id(t)) for s, t in generic]
    tasks = fs.task_arrays()
    for name, expected in rebuilt_task_arrays(fs).items():
        assert_bitwise(getattr(tasks, name), expected)


def random_tasks(rng: RngStream, name: str) -> tuple[Task, ...]:
    tasks: list[Task] = []
    for k in range(rng.randint(0, 3)):
        kind = rng.randint(0, 4)
        if kind == 0:
            tasks.append(ConstantTask(level=rng.uniform(0.0, 1.0)))
        elif kind == 1:
            tasks.append(
                PeriodicTask(
                    mean=rng.uniform(0.2, 0.6),
                    amplitude=rng.uniform(0.0, 0.2),
                    period_s=rng.uniform(30.0, 300.0),
                    phase_s=rng.uniform(0.0, 60.0),
                )
            )
        elif kind == 2:
            tasks.append(
                RampTask(
                    start_level=rng.uniform(0.0, 1.0),
                    end_level=rng.uniform(0.0, 1.0),
                    ramp_s=rng.uniform(10.0, 200.0),
                )
            )
        elif kind == 3:
            tasks.append(BurstyTask(RngStream(rng.randint(0, 10**6), f"{name}/{k}")))
        else:
            tasks.append(StepTask(rng.uniform(0.0, 1.0)))
    return tuple(tasks)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_dense_indices_match_per_server_loop(seed):
    rng = RngStream(seed, "load-gather-parity")
    cluster = Cluster("parity")
    for i in range(N_SERVERS):
        cluster.add_server(
            Server(
                ServerSpec(
                    name=f"s{i}",
                    capacity=ResourceCapacity(
                        cpu_cores=64, ghz_per_core=2.4, memory_gb=4096.0
                    ),
                    cpu_overcommit=8.0,
                )
            )
        )
    servers = cluster.servers
    view = FleetLoadView(cluster.fleet_state)
    check(view, cluster)
    detached: list[Vm] = []  # removed mid-migration, waiting to re-attach
    made = reordered = with_generic = doubled = 0
    for _ in range(N_OPS):
        op = rng.randint(0, 6)
        hosted = [(vm, s) for s in servers for vm in s.vms.values()]
        if op == 0 or not hosted:
            name = f"vm{made}"
            made += 1
            spec = VmSpec(
                name=name,
                vcpus=rng.randint(1, 4),
                memory_gb=2.0,
                tasks=random_tasks(rng, name),
            )
            vm = Vm(spec)
            rng.choice(servers).host_vm(vm, time_s=float(made))
        elif op == 1:
            # Migration: the VM leaves its dict mid-migration and later
            # re-enters one (possibly the same) at the end.
            vm, server = rng.choice(hosted)
            if vm.state is VmState.RUNNING:
                vm.begin_migration()
                server.remove_vm(vm.name)
                detached.append(vm)
        elif op == 2 and detached:
            vm = detached.pop(rng.randint(0, len(detached) - 1))
            others = [s for s in servers if vm.name not in s.vms]
            if vm.state is VmState.MIGRATING and others:
                rng.choice(others).attach_migrating_vm(vm)
        elif op == 3:
            # Terminated VMs stay in their server's dict.
            vm, _ = rng.choice(hosted)
            if vm.state is not VmState.TERMINATED:
                vm.terminate()
        elif op == 4:
            vm, _ = rng.choice(hosted)
            vm.state = rng.choice(list(VmState))
        elif op == 5:
            # Attached to a second host while still in the first dict.
            vm, _ = rng.choice(hosted)
            others = [s for s in servers if vm.name not in s.vms]
            if vm.state is VmState.RUNNING and others:
                vm.begin_migration()
                rng.choice(others).attach_migrating_vm(vm)
                doubled += 1
        else:
            # Removal of a terminated VM, or a running one (no migration).
            vm, server = rng.choice(hosted)
            server.remove_vm(vm.name)
        check(view, cluster)
        fs = cluster.fleet_state
        reordered += any(slots != sorted(slots) for slots in fs.server_vm_slots)
        with_generic += bool(view._generic)
    # The sequences reach dict orders that differ from slot order, VMs
    # listed under two hosts, and generic tasks on running VMs.
    assert made > 20 and reordered > 10 and with_generic > 50 and doubled > 5
