"""Experiment scenario generation.

A scenario fully determines one profiling experiment: the server, the
VMs (with their tasks), the environment, fan state, and duration. The
randomized generator spans the space the paper evaluates — "20 randomized
experiment cases with 2-12 VMs" — and a dedicated builder produces the
two-server migration scenario behind the dynamic case study of Fig. 1(b).

Beyond the paper's single-server cases, :class:`FleetScenario` describes
cluster-scale workloads for the vectorized fleet engine, materialized by
:func:`build_fleet_simulation`. The seven fleet builders served here
(``diurnal_fleet_scenario`` and the rest, named in ``_LIBRARY_BUILDERS``)
are defined in :mod:`repro.scenarios.library`, each bound to the spec
document it compiles; this module's ``__getattr__`` forwards the names
to it. Fleet scenarios pair
naturally with the online prediction service: attach a
:class:`repro.serving.fleet.FleetPredictionProbe` to the built
simulation to serve every host's Δ_gap-ahead forecast while it runs
(see ``examples/fleet_prediction.py`` and the ``fleet-predict`` CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.config import ExperimentConfig
from repro.datacenter.cluster import Cluster
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import TASK_KINDS, ConstantTask, random_task
from repro.errors import ConfigurationError
from repro.rng import RngFactory, RngStream
from repro.thermal.environment import ConstantEnvironment, EnvironmentProfile

#: Discrete option sets for randomized server hardware; commodity boxes.
CORE_OPTIONS = (8, 16, 24, 32)
GHZ_OPTIONS = (2.0, 2.4, 2.6, 3.0)
MEMORY_OPTIONS = (64.0, 128.0, 256.0)
FAN_COUNT_OPTIONS = (2, 4, 6, 8)


@dataclass(frozen=True)
class ExperimentScenario:
    """One single-server profiling experiment."""

    name: str
    server: ServerSpec
    vm_specs: tuple[VmSpec, ...]
    environment: EnvironmentProfile
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    seed: int = 0

    @property
    def n_vms(self) -> int:
        """Number of VMs deployed in this scenario."""
        return len(self.vm_specs)


@dataclass(frozen=True)
class MigrationScenario:
    """Two-server scenario with one VM migrating mid-run.

    The observed server is the *destination*: its VM set changes when the
    migration lands, which is exactly the dynamic condition the paper's
    calibrated prediction must survive.
    """

    base: ExperimentScenario
    source_server: ServerSpec
    source_vm_specs: tuple[VmSpec, ...]
    migrating_vm: str
    migration_time_s: float


def random_scenario(
    seed: int,
    name: str | None = None,
    n_vms_range: tuple[int, int] = (2, 12),
    fan_count: int | None = None,
    env_temp_range: tuple[float, float] = (18.0, 28.0),
    duration_s: float = 1800.0,
) -> ExperimentScenario:
    """Draw one randomized experiment case.

    All randomness derives from ``seed`` via named streams, so scenarios
    are fully reproducible. ``fan_count`` pins the fan configuration
    (Fig. 1(c) uses 4 fans); None randomizes it.
    """
    lo, hi = n_vms_range
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"invalid n_vms_range {n_vms_range}")
    factory = RngFactory(seed)
    hw = factory.stream("hardware")
    vm_rng = factory.stream("vms")

    cores = hw.choice(list(CORE_OPTIONS))
    ghz = hw.choice(list(GHZ_OPTIONS))
    memory = hw.choice(list(MEMORY_OPTIONS))
    fans = fan_count if fan_count is not None else hw.choice(list(FAN_COUNT_OPTIONS))
    fan_speed = hw.uniform(0.4, 1.0)
    env_temp = hw.uniform(*env_temp_range)
    n_vms = vm_rng.randint(lo, hi)

    server = ServerSpec(
        name=f"server-{seed}",
        capacity=ResourceCapacity(cpu_cores=cores, ghz_per_core=ghz, memory_gb=memory),
        fan_count=fans,
        fan_speed=fan_speed,
    )
    vm_specs = tuple(
        _random_vm_spec(vm_rng, factory, index, server, n_vms) for index in range(n_vms)
    )
    return ExperimentScenario(
        name=name or f"case-{seed}",
        server=server,
        vm_specs=vm_specs,
        environment=ConstantEnvironment(env_temp),
        config=ExperimentConfig(duration_s=duration_s),
        seed=seed,
    )


def _random_vm_spec(
    vm_rng: RngStream, factory: RngFactory, index: int, server: ServerSpec, n_vms: int
) -> VmSpec:
    """One random VM sized so that ``n_vms`` of its kind always fit."""
    max_vcpus = max(1, int(server.vcpu_limit) // max(n_vms, 1))
    vcpus = vm_rng.randint(1, min(8, max_vcpus))
    memory_cap = server.capacity.memory_gb / n_vms
    memory = vm_rng.uniform(min(1.0, memory_cap * 0.5), memory_cap * 0.9)
    n_tasks = vm_rng.randint(1, 3)
    task_rng = factory.stream(f"tasks/vm-{index}")
    kinds = [vm_rng.choice(list(TASK_KINDS)) for _ in range(n_tasks)]
    tasks = tuple(random_task(task_rng, kind=k) for k in kinds)
    return VmSpec(
        name=f"vm-{index}",
        vcpus=vcpus,
        memory_gb=memory,
        tasks=tasks,
    )


def random_scenarios(
    n: int,
    base_seed: int = 1000,
    **kwargs,
) -> list[ExperimentScenario]:
    """``n`` independent randomized cases with consecutive seeds."""
    return [random_scenario(base_seed + i, **kwargs) for i in range(n)]


def migration_scenario(
    seed: int,
    migration_time_s: float = 900.0,
    fan_count: int = 4,
    duration_s: float = 2400.0,
    n_vms_initial: int = 4,
) -> MigrationScenario:
    """The Fig. 1(b) dynamic case study scenario.

    The destination server starts with ``n_vms_initial`` VMs; at
    ``migration_time_s`` a busy VM live-migrates in from a second server,
    raising the destination's load — and therefore its stable temperature
    — mid-experiment.
    """
    base = random_scenario(
        seed,
        name=f"migration-case-{seed}",
        n_vms_range=(n_vms_initial, n_vms_initial),
        fan_count=fan_count,
        duration_s=duration_s,
    )
    factory = RngFactory(seed).fork("migration-source")
    task_rng = factory.stream("tasks")
    hot_vm = VmSpec(
        name="vm-migrant",
        vcpus=4,
        memory_gb=8.0,
        tasks=tuple(
            ConstantTask(level=task_rng.uniform(0.75, 0.95)) for _ in range(4)
        ),
    )
    base = _with_migration_headroom(base, hot_vm)
    source = ServerSpec(
        name=f"source-{seed}",
        capacity=ResourceCapacity(cpu_cores=16, ghz_per_core=2.4, memory_gb=64.0),
        fan_count=4,
        fan_speed=0.7,
    )
    return MigrationScenario(
        base=base,
        source_server=source,
        source_vm_specs=(hot_vm,),
        migrating_vm=hot_vm.name,
        migration_time_s=migration_time_s,
    )


def _with_migration_headroom(
    scenario: ExperimentScenario, migrant: VmSpec
) -> ExperimentScenario:
    """Shrink the scenario's initial VMs so the migrant always fits.

    The randomized generator sizes VMs to fill their own server; a
    migration destination additionally needs room for the incoming VM
    (hard memory constraint plus the vCPU overcommit cap). Memory and
    vCPUs are scaled down proportionally when the headroom is missing.
    """
    capacity = scenario.server.capacity
    memory_budget = capacity.memory_gb - migrant.memory_gb - 1.0
    vcpu_budget = int(scenario.server.vcpu_limit) - migrant.vcpus

    used_memory = sum(vm.memory_gb for vm in scenario.vm_specs)
    used_vcpus = sum(vm.vcpus for vm in scenario.vm_specs)
    memory_scale = min(1.0, memory_budget / used_memory) if used_memory > 0 else 1.0
    n = max(len(scenario.vm_specs), 1)
    vcpu_cap = max(1, vcpu_budget // n)

    if memory_scale >= 1.0 and used_vcpus <= vcpu_budget:
        return scenario
    adjusted = tuple(
        VmSpec(
            name=vm.name,
            vcpus=min(vm.vcpus, vcpu_cap) if used_vcpus > vcpu_budget else vm.vcpus,
            memory_gb=max(0.5, vm.memory_gb * memory_scale),
            tasks=vm.tasks,
        )
        for vm in scenario.vm_specs
    )
    return ExperimentScenario(
        name=scenario.name,
        server=scenario.server,
        vm_specs=adjusted,
        environment=scenario.environment,
        config=scenario.config,
        seed=scenario.seed,
    )


# -- fleet-scale scenarios ----------------------------------------------------


@dataclass(frozen=True)
class FleetScenario:
    """A cluster-scale workload for the vectorized fleet engine.

    ``vm_specs[i]`` are the VMs initially placed on ``server_specs[i]``;
    ``migrations`` schedules (start_time_s, vm_name, destination) live
    migrations on the materialized simulation; ``arrivals`` schedules
    (time_s, server_name, VmSpec) mid-run VM arrivals (flash crowds,
    tenant launches).
    """

    name: str
    server_specs: tuple[ServerSpec, ...]
    vm_specs: tuple[tuple[VmSpec, ...], ...]
    environment: EnvironmentProfile
    duration_s: float
    seed: int = 0
    migrations: tuple[tuple[float, str, str], ...] = ()
    arrivals: tuple[tuple[float, str, VmSpec], ...] = ()
    servers_per_rack: int = 16

    def __post_init__(self) -> None:
        if len(self.server_specs) != len(self.vm_specs):
            raise ConfigurationError(
                f"{len(self.server_specs)} servers but "
                f"{len(self.vm_specs)} VM placement groups"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {self.duration_s}")
        if self.servers_per_rack < 1:
            raise ConfigurationError(
                f"servers_per_rack must be >= 1, got {self.servers_per_rack}"
            )
        server_names = {spec.name for spec in self.server_specs}
        placed = {vm.name for group in self.vm_specs for vm in group}
        for time_s, server_name, vm in self.arrivals:
            if time_s < 0.0:
                raise ConfigurationError(
                    f"arrival of {vm.name!r} at t={time_s} precedes the start"
                )
            if time_s >= self.duration_s:
                raise ConfigurationError(
                    f"arrival of {vm.name!r} at t={time_s} is at or after "
                    f"duration_s={self.duration_s} and would silently never fire"
                )
            if server_name not in server_names:
                raise ConfigurationError(
                    f"arrival of {vm.name!r} targets unknown server "
                    f"{server_name!r}"
                )
        for time_s, vm_name, destination in self.migrations:
            if time_s < 0.0:
                raise ConfigurationError(
                    f"migration of {vm_name!r} at t={time_s} precedes the start"
                )
            if time_s >= self.duration_s:
                raise ConfigurationError(
                    f"migration of {vm_name!r} at t={time_s} is at or after "
                    f"duration_s={self.duration_s} and would silently never fire"
                )
            if destination not in server_names:
                raise ConfigurationError(
                    f"migration of {vm_name!r} targets unknown server "
                    f"{destination!r}"
                )
            if vm_name not in placed:
                raise ConfigurationError(
                    f"migration references {vm_name!r}, which is not among "
                    "the initially placed VMs"
                )

    @property
    def n_servers(self) -> int:
        """Number of servers in the fleet."""
        return len(self.server_specs)

    @property
    def n_vms(self) -> int:
        """Total number of VMs initially placed."""
        return sum(len(group) for group in self.vm_specs)


#: The fleet builders bound in :mod:`repro.scenarios.library`, served here.
_LIBRARY_BUILDERS = frozenset({
    "diurnal_fleet_scenario",
    "class_balanced_fleet_scenario",
    "model_drift_scenario",
    "migration_storm_scenario",
    "cooling_failure_scenario",
    "thermal_cascade_scenario",
    "flash_crowd_scenario",
})


def __getattr__(name: str):
    """Serve the seven fleet builders from :mod:`repro.scenarios.library`.

    The import is call-time because ``repro.scenarios`` sits above this
    layer (it compiles onto :class:`FleetScenario`).
    """
    if name in _LIBRARY_BUILDERS:
        from repro.scenarios import library

        return getattr(library, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- simulation builders ------------------------------------------------------


def build_fleet_simulation(
    scenario: FleetScenario, use_fleet_engine: bool = True
) -> DatacenterSimulation:
    """Materialize a fleet scenario: servers racked, VMs placed at t=0,
    lumps initialized to the per-server idle steady state, migrations
    and mid-run arrivals scheduled."""
    from repro.datacenter.events import FunctionEvent
    from repro.datacenter.migration import migrate_vm

    cluster = Cluster(name=f"{scenario.name}-cluster")
    ambient = scenario.environment.temperature(0.0)
    for index, (spec, vms) in enumerate(
        zip(scenario.server_specs, scenario.vm_specs)
    ):
        server = Server(spec)
        idle = server.thermal.steady_state_cpu_temperature(0.0, ambient)
        server.thermal.set_temperatures(idle, (idle + ambient) / 2.0)
        cluster.add_server(server, rack=f"rack-{index // scenario.servers_per_rack}")
        for vm_spec in vms:
            server.host_vm(Vm(vm_spec), time_s=0.0)
    sim = DatacenterSimulation(
        cluster=cluster,
        environment=scenario.environment,
        rng=RngFactory(scenario.seed).fork("sim"),
        use_fleet_engine=use_fleet_engine,
    )
    for start_time_s, vm_name, destination in scenario.migrations:
        migrate_vm(sim, vm_name=vm_name, destination=destination, start_time_s=start_time_s)
    for arrival_time_s, server_name, vm_spec in scenario.arrivals:
        sim.schedule(FunctionEvent(
            arrival_time_s,
            partial(_host_arrival, server_name, vm_spec, arrival_time_s),
            label=f"arrival:{vm_spec.name}",
        ))
    return sim


def _host_arrival(
    server_name: str, vm_spec: VmSpec, time_s: float, sim: DatacenterSimulation
) -> None:
    """Place an arriving VM (module level, so a built simulation pickles)."""
    sim.cluster.server(server_name).host_vm(Vm(vm_spec), time_s=time_s)


def build_simulation(scenario: ExperimentScenario) -> DatacenterSimulation:
    """Materialize a single-server simulation, VMs placed at t=0.

    Server lumps start at the *idle steady state* for the scenario's
    ambient (a real server idles before an experiment starts), which
    defines φ(0) ≠ ambient just as on a physical testbed.
    """
    cluster = Cluster(name=f"{scenario.name}-cluster")
    server = Server(scenario.server)
    cluster.add_server(server)
    sim = DatacenterSimulation(
        cluster=cluster,
        environment=scenario.environment,
        rng=RngFactory(scenario.seed).fork("sim"),
        sensor_config=scenario.config.sensor,
        time_step_s=scenario.config.thermal.time_step_s,
    )
    ambient = scenario.environment.temperature(0.0)
    idle = server.thermal.steady_state_cpu_temperature(0.0, ambient)
    idle_case = (idle + ambient) / 2.0
    server.thermal.set_temperatures(idle, idle_case)
    for spec in scenario.vm_specs:
        server.host_vm(Vm(spec), time_s=0.0)
    return sim


def build_migration_simulation(scenario: MigrationScenario):
    """Materialize the two-server migration simulation.

    Returns ``(sim, destination_name, plan)``: the simulation (migration
    events already scheduled), the *observed* destination server's name,
    and the pre-copy :class:`~repro.datacenter.migration.MigrationPlan`
    (whose duration tells when the VM lands).
    """
    from repro.datacenter.migration import migrate_vm

    sim = build_simulation(scenario.base)
    destination = scenario.base.server.name
    source = Server(scenario.source_server)
    sim.cluster.add_server(source, rack="rack-1")
    ambient = scenario.base.environment.temperature(0.0)
    idle = source.thermal.steady_state_cpu_temperature(0.0, ambient)
    source.thermal.set_temperatures(idle, (idle + ambient) / 2.0)
    for spec in scenario.source_vm_specs:
        source.host_vm(Vm(spec), time_s=0.0)
    plan = migrate_vm(
        sim,
        vm_name=scenario.migrating_vm,
        destination=destination,
        start_time_s=scenario.migration_time_s,
    )
    return sim, destination, plan
