"""Vectorized CPU-load arbitration for a fleet of servers.

The scalar path asks every server's VMM to ``schedule()`` per step —
dict-building Python that dominates co-simulation cost at fleet scale
(half the step budget at 128 servers). This module reads the whole
cluster's workload from the flat arrays of a
:class:`~repro.datacenter.fleetstate.FleetState` and reproduces the
proportional-share arbitration of :class:`~repro.datacenter.vmm.Vmm` in
a handful of vectorized operations per step.

Task families with closed-form utilization (constant, periodic, ramp)
are evaluated entirely in NumPy; stateful or user-defined tasks (e.g.
:class:`~repro.datacenter.workload.BurstyTask`) fall back to one Python
call per task per step, so a single exotic task never forces a whole
server — let alone the fleet — off the fast path.

Nothing needs rebuilding after events: placement, lifecycle and
overhead inputs live in the fleet state, and the view re-derives its
dense gather indices itself when the placement or task generation
moves.

In the paper's terms this is the VMM-statistics source feeding the ξ_VM
side of the Eq. (2) input record: per-VM demand aggregates into host
CPU utilization, which drives the thermal plant whose sensor samples
the online predictors (:class:`~repro.core.monitor.TemperatureMonitor`
per-server, :class:`~repro.serving.fleet.PredictionFleet` fleet-wide)
calibrate against. Parity with the scalar VMM is covered by
``tests/thermal/test_fleet_parity.py``; the two data paths are drawn in
``docs/architecture.md``.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.datacenter.vm import RUNNING_CODES

_TWO_PI = 2.0 * np.pi


class FleetLoadView:
    """Batched utilization evaluation over a
    :class:`~repro.datacenter.fleetstate.FleetState`.

    The view reads the fleet-state arrays directly: closed-form task
    parameters already live in VM-slot space, overhead inputs (running
    counts, migration counts, per-VM overhead) are per-server columns,
    and only the *dense gather indices* (which slots are running, on
    which server) need recomputing — lazily, when the placement
    generation moves.

    Parity: demand is evaluated for every registered slot (the values
    are elementwise, so extra slots are free of ordering effects) and
    then gathered in server-major dict-insertion order — the order in
    which each server's VMM sums its VMs — so ``utilizations`` is
    bit-identical to per-server ``Vmm.schedule``
    (``tests/integration/test_soa_parity.py``). Stateful (generic) tasks
    are only ever evaluated for running VMs, in the same order as the
    per-server path, so their internal RNG state advances identically.
    """

    def __init__(self, fs) -> None:
        self.fs = fs
        self._placement_gen = -1
        self._task_gen = -1
        self._dense_slots = np.zeros(0, dtype=np.intp)
        self._dense_server = np.zeros(0, dtype=np.intp)
        self._generic: list[tuple[int, object]] = []

    def _refresh(self) -> None:
        """Re-derive the dense gather indices from the fleet state.

        The per-server slot lists (dict-insertion order, a VM attached
        mid-migration to two hosts listed under both) are flattened in
        C, and the running slots kept.
        """
        fs = self.fs
        lists = fs.server_vm_slots
        counts = np.fromiter(map(len, lists), np.intp, fs.n_servers)
        placed = np.fromiter(
            itertools.chain.from_iterable(lists), np.intp, int(counts.sum())
        )
        running = np.isin(fs.vm_state_code[placed], RUNNING_CODES)
        self._dense_slots = placed[running]
        self._dense_server = np.repeat(np.arange(fs.n_servers), counts)[running]
        generic_tasks = fs.generic_tasks
        generic: list[tuple[int, object]] = []
        if generic_tasks:
            slots = self._dense_slots
            with_generic = np.isin(slots, np.fromiter(generic_tasks, np.intp))
            for slot in slots[with_generic].tolist():
                for task in generic_tasks[slot]:
                    generic.append((slot, task))
        self._generic = generic
        self._placement_gen = fs.placement_generation
        self._task_gen = fs.task_generation

    def utilizations(self, time_s: float) -> np.ndarray:
        """Host CPU utilization per server at ``time_s``, in slot order.

        Mirrors :meth:`repro.datacenter.vmm.Vmm.schedule`: per-VM demand
        is the sum of its tasks' utilizations capped at the vCPU count;
        demand above the post-overhead core budget is scaled down
        proportionally; host utilization is allocated-plus-overhead over
        physical cores, clamped at 1.
        """
        fs = self.fs
        if (
            fs.placement_generation != self._placement_gen
            or fs.task_generation != self._task_gen
        ):
            self._refresh()
        n = fs.n_servers
        cores = fs.cores[:n]
        raw_overhead = (
            fs.overhead_per_vm[:n] * fs.n_running[:n]
            + fs.migration_overhead[:n] * fs.active_migrations[:n]
        )
        overhead = np.minimum(raw_overhead, cores)
        if self._dense_slots.size == 0:
            return np.minimum(1.0, overhead / cores)

        nv = fs.n_vms
        local_t = np.maximum(0.0, time_s - fs.vm_started_at_s[:nv])
        tasks = fs.task_arrays()
        demand = np.zeros(nv, dtype=float)
        if tasks.const_vm.size:
            np.add.at(demand, tasks.const_vm, tasks.const_level)
        if tasks.per_vm.size:
            angle = _TWO_PI * (local_t[tasks.per_vm] + tasks.per_phase) / tasks.per_period
            u = tasks.per_mean + tasks.per_amp * np.sin(angle)
            np.add.at(demand, tasks.per_vm, np.minimum(1.0, np.maximum(0.0, u)))
        if tasks.ramp_vm.size:
            t = local_t[tasks.ramp_vm]
            frac = np.maximum(0.0, t / tasks.ramp_s)
            u = np.where(
                t >= tasks.ramp_s,
                tasks.ramp_end,
                tasks.ramp_start + tasks.ramp_span * frac,
            )
            np.add.at(demand, tasks.ramp_vm, u)
        for slot, task in self._generic:
            demand[slot] += task.utilization(local_t[slot])
        demand = np.minimum(fs.vm_vcpus_f[:nv], demand)

        dense_demand = demand[self._dense_slots]
        available = cores - overhead
        total = np.bincount(self._dense_server, weights=dense_demand, minlength=n)
        contended = total > available
        if contended.any():
            scale = np.where(
                contended, available / np.where(contended, total, 1.0), 1.0
            )
            allocations = dense_demand * scale[self._dense_server]
            used = (
                np.bincount(self._dense_server, weights=allocations, minlength=n)
                + overhead
            )
        else:
            used = total + overhead
        return np.minimum(1.0, used / cores)
