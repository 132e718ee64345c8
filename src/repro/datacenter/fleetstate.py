"""Structure-of-arrays fleet state: contiguous truth, objects as views.

Every layer of the co-simulation is vectorized, but a fleet built only
from per-:class:`~repro.datacenter.server.Server` /
per-:class:`~repro.datacenter.vm.Vm` Python objects forces the hot
loops to gather from them: re-walking every server, VM, and task after
*any* placement change, repacking plant state around every event, and
re-summing ``server.vms`` per admission check.

:class:`FleetState` inverts the ownership. Fleet truth lives in
contiguous NumPy arrays — server × attribute (capacity, committed
resources, fan operating point, two-lump thermal state and RC/power
coefficients) and VM × attribute (vcpus, memory, start time, lifecycle
state code, closed-form task parameters) with an ownership index
``vm_server`` — and the object layer becomes a set of thin views:
``Server``/``Vm``/``ServerThermalModel`` properties read and write array
cells, so mutations through either side are immediately visible to the
other. Placement events mutate the arrays incrementally (O(changed)
instead of O(fleet)), and monotonically increasing *generation counters*
let consumers skip work when nothing they depend on changed:

``generation``
    bumped by every mutation (placement, VM state, fans, migrations);
``placement_generation`` / per-server ``server_generation``
    bumped when a server's hosted-VM set or a hosted VM's lifecycle
    state changes — the signal for dense-index refresh
    (:class:`~repro.datacenter.fleet_load.FleetLoadView`), prediction
    probe VM-set signatures;
``membership_generation``
    bumped when a server registers — the signal for a full view rebuild
    (array buffers may have been reallocated by growth);
``task_generation``
    bumped when a VM's task parameters are appended.

Eq. (2) contribution columns: each VM's spec is immutable, so its
share of the stable model's input is computed once, at registration
(:func:`vm_contributions`) — ``vm_nominal_util``, ``vm_demand_vcpus``
(``vcpus × utilization``), the ``vm_task_kinds`` histogram over
``TASK_KINDS`` and the ``vm_unknown_kind`` marker — next to the server
``total_ghz`` column. :func:`repro.core.features.feature_rows` gathers
them over ``server_vm_slots`` to build what-if feature rows without
building records.

Binding protocol: a :class:`~repro.datacenter.cluster.Cluster` owns one
``FleetState`` and registers each server on ``add_server`` (along with
any VMs it already hosts). Servers and VMs never constructed into a
cluster keep plain-attribute bookkeeping — the view properties fall back
transparently, so unit-level code is unaffected. A thermal plant is
bound only when it is *exactly* the standard model
(:class:`~repro.thermal.server_thermal.ServerThermalModel` with a
:class:`~repro.thermal.power.CpuPowerModel` and a
:class:`~repro.thermal.fan.FanBank`); custom subclasses keep their own
state, and a cluster carrying one is simulated on the per-server
reference path. A server binds to one state for life, so a cluster
rejects a server already registered elsewhere.

Parity contract: the arrays preserve *order*. Per-server VM slots are
kept in dict-insertion order and committed-capacity counters are
maintained so they equal the left-fold sum the old properties computed
(floats recomputed on removal), which is what makes the SoA path
bit-identical to the object path — see
``tests/datacenter/test_fleetstate.py`` and
``tests/integration/test_soa_parity.py``.
"""

from __future__ import annotations

import numpy as np

from repro.datacenter.vm import RUNNING_CODES, STATE_CODES, Vm, VmSpec
from repro.datacenter.workload import TASK_KINDS
from repro.thermal.fan import FanBank
from repro.thermal.power import CpuPowerModel
from repro.thermal.server_thermal import ServerThermalModel

#: Server-indexed float64 arrays (name → initial value).
_SERVER_FLOAT_FIELDS = (
    "t_cpu_c",
    "t_case_c",
    "plant_time_s",
    "c_cpu",
    "c_case",
    "r_die",
    "r_case_base",
    "r_case_eff",
    "p_idle_w",
    "p_span_w",
    "p_exp",
    "p_mem_w",
    "p_case_fan_w",
    "fan_count",
    "fan_speed",
    "memory_capacity_gb",
    "vcpu_limit",
    "cores",
    "total_ghz",
    "used_memory_gb",
    "overhead_per_vm",
    "migration_overhead",
)
#: Server-indexed int64 arrays.
_SERVER_INT_FIELDS = (
    "used_vcpus",
    "active_migrations",
    "n_running",
    "server_generation",
)
#: VM-slot-indexed float64 arrays.
_VM_FLOAT_FIELDS = (
    "vm_vcpus_f",
    "vm_memory_gb",
    "vm_started_at_s",
    "vm_nominal_util",
    "vm_demand_vcpus",
)


def vm_contributions(spec: VmSpec) -> tuple[float, float, list[int], bool]:
    """One VM's Eq. (2) contributions, pure functions of its spec.

    Returns the nominal utilization, the ``vcpus × utilization`` demand,
    the task-kind histogram over :data:`TASK_KINDS`, and whether any
    task has a kind outside :data:`TASK_KINDS`.
    """
    utilization = spec.nominal_utilization()
    kinds = [0] * len(TASK_KINDS)
    unknown = False
    for task in spec.tasks:
        if task.kind in TASK_KINDS:
            kinds[TASK_KINDS.index(task.kind)] += 1
        else:
            unknown = True
    return utilization, spec.vcpus * utilization, kinds, unknown


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """Zero-filled doubling growth preserving existing rows."""
    capacity = array.shape[0]
    if needed <= capacity:
        return array
    new_capacity = max(4, capacity)
    while new_capacity < needed:
        new_capacity *= 2
    out = np.zeros((new_capacity,) + array.shape[1:], dtype=array.dtype)
    out[:capacity] = array
    return out


#: Closed-form task families and their slot-space columns (the VM slot,
#: then the task's parameters; ``ramp_span`` is ``end - start``).
_TASK_FAMILIES = {
    "const": ("const_vm", "const_level"),
    "per": ("per_vm", "per_mean", "per_amp", "per_period", "per_phase"),
    "ramp": ("ramp_vm", "ramp_start", "ramp_end", "ramp_span", "ramp_s"),
}


class _TaskArrays:
    """Cached NumPy views of the slot-space task parameter columns."""

    __slots__ = tuple(name for names in _TASK_FAMILIES.values() for name in names)


class FleetState:
    """Contiguous array store owning one cluster's fleet truth."""

    def __init__(self) -> None:
        for name in _SERVER_FLOAT_FIELDS:
            setattr(self, name, np.zeros(0, dtype=float))
        for name in _SERVER_INT_FIELDS:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        for name in _VM_FLOAT_FIELDS:
            setattr(self, name, np.zeros(0, dtype=float))
        self.vm_vcpus = np.zeros(0, dtype=np.int64)
        self.vm_state_code = np.zeros(0, dtype=np.int8)
        self.vm_server = np.zeros(0, dtype=np.int64)
        #: Number of server dicts listing each VM: one while hosted, two
        #: while a migration has attached it to a second host before the
        #: first lets go. ``vm_server`` always names one of them.
        self.vm_listings = np.zeros(0, dtype=np.int64)
        self.vm_task_kinds = np.zeros((0, len(TASK_KINDS)), dtype=float)
        self.vm_unknown_kind = np.zeros(0, dtype=bool)

        self.n_servers = 0
        self.n_vms = 0
        self.server_objects: list = []
        self.server_names: list[str] = []
        #: Per-server VM slots in dict-insertion order (incl. terminated
        #: VMs still occupying memory — mirrors ``server.vms``).
        self.server_vm_slots: list[list[int]] = []
        self.vm_objects: list[Vm] = []
        self.vm_index: dict[str, int] = {}
        #: False once two distinct VM objects shared a name; O(1) lookup
        #: (``Cluster.find_vm``) then falls back to the dict scan.
        self.vm_names_unique = True

        # Slot-space closed-form task parameters: one growable column per
        # ``_TaskArrays`` field, appended once per task at registration
        # (specs are immutable), and a row count per task family.
        self._task_columns = {
            name: np.zeros(0, dtype=np.intp if name.endswith("_vm") else float)
            for names in _TASK_FAMILIES.values()
            for name in names
        }
        self._task_counts = dict.fromkeys(_TASK_FAMILIES, 0)
        #: Slot → stateful/user-defined tasks (spec order), stepped in
        #: Python by the load view.
        self.generic_tasks: dict[int, list] = {}

        self.generation = 0
        self.placement_generation = 0
        self.membership_generation = 0
        self.task_generation = 0
        self._task_arrays: _TaskArrays | None = None
        self._task_arrays_generation = -1

    # -- registration -------------------------------------------------------

    def register_server(self, server) -> int:
        """Append a server row, bind the server (and its standard plant)
        as views, and place any VMs it already hosts."""
        i = self.n_servers
        needed = i + 1
        for name in _SERVER_FLOAT_FIELDS:
            setattr(self, name, _grown(getattr(self, name), needed))
        for name in _SERVER_INT_FIELDS:
            setattr(self, name, _grown(getattr(self, name), needed))
        self.n_servers = needed

        spec = server.spec
        capacity = spec.capacity
        self.memory_capacity_gb[i] = capacity.memory_gb
        self.vcpu_limit[i] = spec.vcpu_limit
        self.cores[i] = float(capacity.cpu_cores)
        self.total_ghz[i] = capacity.total_ghz
        vmm = server.vmm
        self.overhead_per_vm[i] = vmm.overhead_cores_per_vm
        self.migration_overhead[i] = vmm.migration_overhead_cores
        fans = server.fans
        self.fan_count[i] = fans.count
        self.fan_speed[i] = fans.speed
        self.active_migrations[i] = server.active_migrations

        plant = server.thermal
        if isinstance(plant, ServerThermalModel):
            config = plant.config
            self.t_cpu_c[i] = plant.cpu_temperature_c
            self.t_case_c[i] = plant.case_temperature_c
            self.plant_time_s[i] = plant.time_s
            self.c_cpu[i] = config.cpu_heat_capacity_j_per_k
            self.c_case[i] = config.case_heat_capacity_j_per_k
            self.r_die[i] = config.cpu_to_case_resistance_k_per_w
            self.r_case_base[i] = config.case_to_ambient_resistance_k_per_w
            power = plant.power_model
            self.p_idle_w[i] = power.idle_power_w
            self.p_span_w[i] = power.max_power_w - power.idle_power_w
            self.p_exp[i] = power.exponent
            self.p_mem_w[i] = power.memory_power_w
            if isinstance(plant.fans, FanBank):
                self.r_case_eff[i] = (
                    config.case_to_ambient_resistance_k_per_w
                    * plant.fans.resistance_scale()
                )
                self.p_case_fan_w[i] = plant.fans.power_w()

        self.server_objects.append(server)
        self.server_names.append(server.name)
        self.server_vm_slots.append([])

        if (
            type(plant) is ServerThermalModel
            and type(plant.power_model) is CpuPowerModel
            and type(plant.fans) is FanBank
            and plant._fs is None
        ):
            plant._fs = self
            plant._slot = i
        server._fs = self
        server._slot = i
        for vm in server.vms.values():
            self.place_vm(i, vm)
        self.membership_generation += 1
        self.generation += 1
        return i

    def _register_vm(self, vm: Vm) -> int:
        """Append a VM slot (state copied from the object, tasks grouped
        by closed-form family in spec order) and bind the VM as a view."""
        if vm._fs is self:
            return vm._slot
        # Read lifecycle state through the properties *before* rebinding
        # so a VM migrating across FleetStates carries its state along.
        state = vm.state
        started_at_s = vm.started_at_s
        slot = self.n_vms
        needed = slot + 1
        for name in _VM_FLOAT_FIELDS:
            setattr(self, name, _grown(getattr(self, name), needed))
        self.vm_vcpus = _grown(self.vm_vcpus, needed)
        self.vm_state_code = _grown(self.vm_state_code, needed)
        self.vm_server = _grown(self.vm_server, needed)
        self.vm_listings = _grown(self.vm_listings, needed)
        self.vm_task_kinds = _grown(self.vm_task_kinds, needed)
        self.vm_unknown_kind = _grown(self.vm_unknown_kind, needed)
        self.n_vms = needed

        spec = vm.spec
        self.vm_vcpus[slot] = spec.vcpus
        self.vm_vcpus_f[slot] = float(spec.vcpus)
        self.vm_memory_gb[slot] = spec.memory_gb
        (
            self.vm_nominal_util[slot],
            self.vm_demand_vcpus[slot],
            self.vm_task_kinds[slot],
            self.vm_unknown_kind[slot],
        ) = vm_contributions(spec)
        self.vm_started_at_s[slot] = started_at_s
        self.vm_state_code[slot] = STATE_CODES[state]
        self.vm_server[slot] = -1
        self.vm_objects.append(vm)
        existing = self.vm_index.get(vm.name)
        if existing is None:
            self.vm_index[vm.name] = slot
        else:
            self.vm_names_unique = False

        from repro.datacenter.workload import ConstantTask, PeriodicTask, RampTask

        for task in spec.tasks:
            if type(task) is ConstantTask:
                self._append_task("const", slot, task.level)
            elif type(task) is PeriodicTask:
                self._append_task(
                    "per", slot, task.mean, task.amplitude, task.period_s, task.phase_s
                )
            elif type(task) is RampTask:
                self._append_task(
                    "ramp",
                    slot,
                    task.start_level,
                    task.end_level,
                    task.end_level - task.start_level,
                    task.ramp_s,
                )
            else:
                self.generic_tasks.setdefault(slot, []).append(task)
        if spec.tasks:
            self.task_generation += 1

        vm._fs = self
        vm._slot = slot
        return slot

    def _append_task(self, family: str, *values) -> None:
        """Append one task's row to its family's columns, growing them
        in place."""
        row = self._task_counts[family]
        columns = self._task_columns
        for name, value in zip(_TASK_FAMILIES[family], values):
            column = _grown(columns[name], row + 1)
            column[row] = value
            columns[name] = column
        self._task_counts[family] = row + 1

    # -- placement mutations -------------------------------------------------

    def place_vm(self, server_slot: int, vm: Vm) -> None:
        """Record ``vm`` entering a server's dict (host or migration
        attach): ownership, insertion order, committed capacity."""
        slot = self._register_vm(vm)
        self.vm_server[slot] = server_slot
        self.vm_listings[slot] += 1
        self.server_vm_slots[server_slot].append(slot)
        self.used_memory_gb[server_slot] += vm.spec.memory_gb
        self.used_vcpus[server_slot] += vm.spec.vcpus
        if self.vm_state_code[slot] in RUNNING_CODES:
            self.n_running[server_slot] += 1
        self._bump_placement(server_slot)

    def unplace_vm(self, server_slot: int, vm: Vm, remaining_vms: dict) -> None:
        """Record ``vm`` leaving a server's dict (removal / migration
        detach). The committed-memory float is recomputed as the
        left-fold sum over the surviving dict order so it stays
        bit-identical to the historical re-summing property. A VM still
        listed by another server stays owned by that server."""
        slot = vm._slot
        self.server_vm_slots[server_slot].remove(slot)
        self.vm_listings[slot] -= 1
        if not self.vm_listings[slot]:
            self.vm_server[slot] = -1
        elif self.vm_server[slot] == server_slot:
            self.vm_server[slot] = self._listing_servers(slot)[0]
        self.used_vcpus[server_slot] -= vm.spec.vcpus
        total_gb = 0.0
        for survivor in remaining_vms.values():
            total_gb += survivor.spec.memory_gb
        self.used_memory_gb[server_slot] = total_gb
        if self.vm_state_code[slot] in RUNNING_CODES:
            self.n_running[server_slot] -= 1
        self._bump_placement(server_slot)

    def set_vm_state(self, slot: int, code: int) -> None:
        """Lifecycle transition of a registered VM; keeps the running
        count and generation of every server listing it coherent."""
        old = self.vm_state_code[slot]
        # reprolint: waive R005 -- delta==0 transitions (e.g. PAUSED ->
        # STOPPED) leave the running set unchanged, so placement/load
        # consumers cannot observe them; the delta path below bumps.
        self.vm_state_code[slot] = code
        server_slot = self.vm_server[slot]
        if server_slot >= 0:
            delta = int(code in RUNNING_CODES) - int(old in RUNNING_CODES)
            if delta:
                hosts = (
                    self._listing_servers(slot)
                    if self.vm_listings[slot] > 1
                    else (server_slot,)
                )
                for host in hosts:
                    self.n_running[host] += delta
                    self._bump_placement(host)

    def _listing_servers(self, slot: int) -> list[int]:
        """Slots of the servers whose dicts list VM ``slot``."""
        return [
            server
            for server, slots in enumerate(self.server_vm_slots)
            if slot in slots
        ]

    def _bump_placement(self, server_slot: int) -> None:
        self.server_generation[server_slot] += 1
        self.placement_generation += 1
        self.generation += 1

    # -- non-placement mutations ---------------------------------------------

    def set_fan_state(self, server_slot: int, fans) -> None:
        """Fan operating point changed (count or speed)."""
        self.fan_count[server_slot] = fans.count
        self.fan_speed[server_slot] = fans.speed
        self.generation += 1

    def retune_plant(
        self, server_slot: int, r_case_eff: float, p_case_fan_w: float
    ) -> None:
        """Fan-derived RC/power coefficients changed (plant retune)."""
        self.r_case_eff[server_slot] = r_case_eff
        self.p_case_fan_w[server_slot] = p_case_fan_w
        self.generation += 1

    def bump_migrations(self, server_slot: int, value: int) -> None:
        """Live-migration bookkeeping write-through."""
        self.active_migrations[server_slot] = value
        self.generation += 1

    def set_vm_started_at(self, slot: int, started_at_s: float) -> None:
        """VM start-time rebase write-through (first start / migration)."""
        self.vm_started_at_s[slot] = started_at_s
        self.generation += 1

    def set_plant_time(self, server_slot: int, time_s: float) -> None:
        """Thermal plant clock write-through."""
        self.plant_time_s[server_slot] = time_s
        self.generation += 1

    def set_plant_temperatures(
        self, server_slot: int, t_cpu_c: float, t_case_c: float
    ) -> None:
        """Thermal lump state write-through (plant step or forced init)."""
        self.t_cpu_c[server_slot] = t_cpu_c
        self.t_case_c[server_slot] = t_case_c
        self.generation += 1

    # -- consumers -----------------------------------------------------------

    def task_arrays(self) -> _TaskArrays:
        """Slot-space task parameter arrays: views over the in-place
        grown columns, taken afresh only when a VM registered new tasks
        since the last call."""
        if self._task_arrays_generation != self.task_generation:
            arrays = _TaskArrays()
            for family, names in _TASK_FAMILIES.items():
                rows = self._task_counts[family]
                for name in names:
                    setattr(arrays, name, self._task_columns[name][:rows])
            self._task_arrays = arrays
            self._task_arrays_generation = self.task_generation
        return self._task_arrays

    def covers(self, servers: list) -> bool:
        """True when ``servers`` is exactly this state's registration
        order with every thermal plant bound — the eligibility gate for
        the zero-copy SoA simulation path."""
        if len(servers) != self.n_servers:
            return False
        for i, server in enumerate(servers):
            if server is not self.server_objects[i]:
                return False
            plant = server.thermal
            if (
                type(plant) is not ServerThermalModel
                or plant._fs is not self
                or plant._slot != i
                or type(plant.power_model) is not CpuPowerModel
                or type(plant.fans) is not FanBank
            ):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetState(servers={self.n_servers}, vms={self.n_vms}, "
            f"generation={self.generation})"
        )
