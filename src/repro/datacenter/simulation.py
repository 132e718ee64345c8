"""Co-simulation loop: discrete events + fixed-step thermal integration.

The loop advances simulated time in fixed steps (default 1 s). At each
step it:

1. fires every event due at or before the new time (migrations, workload
   changes, fan actions, scenario callbacks);
2. arbitrates each server's CPU and advances its thermal plant by one
   step;
3. samples each server's temperature sensor on its own period and
   records everything into the telemetry pipeline.

The step size bounds event-timing error at dt/2, far below the thermal
time constants (minutes), so events landing mid-step are indistinguishable
from reality at sensor resolution.

Two execution paths implement step 2–3:

* the **structure-of-arrays path** (default whenever every cluster
  server is bound into the cluster's
  :class:`~repro.datacenter.fleetstate.FleetState` with a standard
  plant, ``fs.covers``) aliases the shared fleet-state arrays directly:
  the :class:`~repro.thermal.fleet.FleetThermalEngine` integrates them
  in place, the load view
  (:class:`~repro.datacenter.fleet_load.FleetLoadView`) re-derives its
  gather indices only when the placement generation moves, and there is
  *no* per-step writeback or repack — the server/VM objects are views
  over the same arrays, so events and probes always observe truthful
  state for free. After probes run, the fleet-state generation counter
  decides whether anything must be refreshed. Probe mutations must go
  through the public APIs (``set_fan_speed``/``set_fan_count``, VM
  placement, ``set_temperatures``, migration bookkeeping); swapping a
  server's ``thermal`` plant object wholesale must happen through a
  scheduled event (the event boundary re-checks eligibility);
* the **per-server reference path** (``use_fleet_engine=False``, and
  automatically for the whole cluster while any server carries a custom
  thermal plant) iterates servers in Python exactly as the original
  implementation did.

Both paths produce the same trajectories to floating-point round-off and
identical sensor readings (``tests/thermal/test_fleet_parity.py``,
``tests/integration/test_soa_parity.py``), and both publish the step to
probes in one shape: :attr:`DatacenterSimulation.step_columns`, a
:class:`StepColumns` of arrays indexed by fleet-state slot (which
sensors sampled and their readings, every server's utilization and true
CPU temperature). Probes read the step from there instead of polling
telemetry series or server objects.

Warm-up semantics: :meth:`DatacenterSimulation.warm_up` advances the
physics (events and probes included) *without recording telemetry* — no
environment samples, no per-server series, and no sensor readings are
produced, and sensor sampling schedules are left untouched. Use it to
reach a thermal operating point before the measured part of a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.config import SensorConfig
from repro.datacenter.cluster import Cluster
from repro.datacenter.events import Event, EventQueue
from repro.datacenter.fleet_load import FleetLoadView
from repro.datacenter.fleetstate import FleetState
from repro.errors import SimulationError
from repro.rng import RngFactory
from repro.thermal.environment import ConstantEnvironment, EnvironmentProfile
from repro.thermal.fleet import FleetThermalEngine
from repro.thermal.sensors import SensorBank, TemperatureSensor

#: Probe signature: (sim, time_s) -> None, called after every step.
Probe = Callable[["DatacenterSimulation", float], None]


class _IntervalGate:
    """Wraps a probe so it fires only on its own control interval.

    The gate arms itself one interval after the first step it observes
    and then advances the deadline by repeated addition (the same
    drift-free grid discipline the Δ_update calibration uses), so a
    probe registered with ``interval_s=60`` fires once per simulated
    minute regardless of the simulation step size — and keeps its grid
    if the step size or run boundaries are irregular.
    """

    def __init__(self, probe: Probe, interval_s: float) -> None:
        if interval_s <= 0:
            raise SimulationError(f"interval_s must be > 0, got {interval_s}")
        self.probe = probe
        self.interval_s = interval_s
        self._next_due: float | None = None

    def __call__(self, sim: "DatacenterSimulation", time_s: float) -> None:
        if self._next_due is None:
            self._next_due = time_s + self.interval_s
            return
        if time_s + 1e-9 < self._next_due:
            return
        while self._next_due <= time_s + 1e-9:
            self._next_due += self.interval_s
        self.probe(sim, time_s)


class StepColumns(NamedTuple):
    """One step of the whole cluster, as arrays in fleet-state slot order.

    Published by both step bodies before the probes run. ``sampled``
    holds the (ascending) slots whose sensor sampled this step and
    ``samples_c`` their readings, taken at ``time_s``; both are empty
    while :meth:`DatacenterSimulation.warm_up` records nothing.
    ``utilization`` and ``cpu_c`` hold every server's CPU utilization
    and true CPU lump temperature after the step. The arrays are valid
    until the next step and must not be mutated.
    """

    time_s: float
    sampled: np.ndarray
    samples_c: np.ndarray
    utilization: np.ndarray
    cpu_c: np.ndarray


_NO_SLOTS = np.empty(0, dtype=np.intp)
_NO_VALUES = np.empty(0, dtype=float)


@dataclass
class _SoaFleet:
    """Zero-copy fleet view over the cluster's shared ``FleetState``.

    Nothing here owns state: the engine's arrays alias the fleet-state
    buffers and the load view reads them directly, so there is no
    writeback and no repack — only the sensor bank (schedule grid) needs
    syncing, before events fire and when the view is dropped.
    """

    fs: FleetState
    engine: FleetThermalEngine
    load: FleetLoadView
    sensor_bank: SensorBank
    #: Snapshot of the server names at build time. Must NOT alias
    #: ``fs.server_names`` (which grows in place): the telemetry
    #: collector keys its pending fleet columns on list identity.
    names: list[str]
    membership_gen: int

    def __post_init__(self) -> None:
        # Telemetry requires freshly-identified column arrays per flush
        # cycle ("replace, don't mutate"), but the fleet-state arrays
        # mutate in place — so emitted columns are copies, cached and
        # re-buffered unchanged until the generation counter moves.
        self._emit_gen = -1
        self._vm_counts = None
        self._fan_counts = None
        self._fan_speeds = None

    def sync(self) -> None:
        """Write sensor schedules back (array state needs no writeback)."""
        self.sensor_bank.writeback()

    def emit_columns(self):
        """(vm_counts, fan_counts, fan_speeds) telemetry columns."""
        fs = self.fs
        if fs.generation != self._emit_gen:
            n = len(self.names)
            self._vm_counts = fs.n_running[:n].astype(float)
            self._fan_counts = fs.fan_count[:n].copy()
            self._fan_speeds = fs.fan_speed[:n].copy()
            self._emit_gen = fs.generation
        return self._vm_counts, self._fan_counts, self._fan_speeds


class DatacenterSimulation:
    """Simulates a cluster's load, events, and thermals over time."""

    def __init__(
        self,
        cluster: Cluster,
        environment: EnvironmentProfile | None = None,
        rng: RngFactory | None = None,
        sensor_config: SensorConfig | None = None,
        time_step_s: float = 1.0,
        use_fleet_engine: bool = True,
    ) -> None:
        if time_step_s <= 0:
            raise SimulationError(f"time_step_s must be > 0, got {time_step_s}")
        self.cluster = cluster
        self.environment = environment or ConstantEnvironment()
        self.rng = rng or RngFactory(0)
        self.sensor_config = sensor_config or SensorConfig()
        self.time_step_s = time_step_s
        self.use_fleet_engine = use_fleet_engine
        self.events = EventQueue()
        self.time_s = 0.0
        self._probes: list[Probe] = []
        self._telemetry = None  # lazily built so cluster can be mutated first
        self._sensors: dict[str, TemperatureSensor] = {}
        self._fleet: _SoaFleet | None = None
        self._recording = True
        #: The latest step's columns (see :class:`StepColumns`); ``None``
        #: before the first step.
        self.step_columns: StepColumns | None = None

    # -- wiring -----------------------------------------------------------

    @property
    def telemetry(self):
        """The telemetry collector (created on first access)."""
        if self._telemetry is None:
            from repro.datacenter.telemetry import TelemetryCollector

            self._telemetry = TelemetryCollector()
        return self._telemetry

    def sensor_for(self, server_name: str) -> TemperatureSensor:
        """The temperature sensor attached to a server."""
        if server_name not in self._sensors:
            self._sensors[server_name] = TemperatureSensor(
                self.sensor_config,
                self.rng.stream(f"sensor/{server_name}"),
            )
        return self._sensors[server_name]

    def add_probe(self, probe: Probe, interval_s: float | None = None) -> None:
        """Register a per-step callback (scenario instrumentation).

        ``interval_s`` turns the probe into an *interval probe*: it is
        invoked only when the simulation clock crosses the next multiple
        of the interval (first firing one interval after registration's
        first step), which is how control-plane loops run on a sparse
        control period while telemetry probes run every step.
        """
        if interval_s is not None:
            probe = _IntervalGate(probe, interval_s)
        self._probes.append(probe)

    @property
    def recording(self) -> bool:
        """False while :meth:`warm_up` advances physics without telemetry.

        Probes that *write* derived telemetry or act on recorded series
        (prediction probes, control planes) should no-op while this is
        False, mirroring the built-in sensor/series suppression.
        """
        return self._recording

    def schedule(self, event: Event) -> None:
        """Schedule an event for later execution."""
        self.events.push(event)

    def log(self, time_s: float, message: str) -> None:
        """Record a log line into telemetry."""
        self.telemetry.log_event(time_s, message)

    # -- main loop ----------------------------------------------------------

    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        if duration_s <= 0:
            raise SimulationError(f"duration_s must be > 0, got {duration_s}")
        end_time = self.time_s + duration_s
        # Fire anything scheduled exactly at the start time.
        self._fire_due_events()
        if self.use_fleet_engine:
            self._fleet_rebuild()
        try:
            while self.time_s < end_time - 1e-9:
                self._step(min(self.time_step_s, end_time - self.time_s))
        finally:
            if self._fleet is not None:
                self._fleet.sync()
                self.telemetry.flush()
                self._fleet = None

    def _step(self, dt: float) -> None:
        """Fire the step's due events, then run one step body.

        Events fire exactly once, before the body is chosen, so an event
        that makes the cluster ineligible for the fleet path (e.g. a
        plant swap) finishes its own step on the reference body.
        """
        new_time = self.time_s + dt
        self.time_s = new_time
        next_event = self.events.peek_time()
        if next_event is not None and next_event <= new_time + 1e-9:
            if self._fleet is not None:
                self._fleet.sync()
            self._fire_due_events()
            if self.use_fleet_engine:
                self._fleet_rebuild()
        if self._fleet is None:
            self._reference_body(dt, new_time)
        else:
            self._soa_body(dt, new_time)

    def _fleet_rebuild(self) -> None:
        """Point the fleet path at the cluster's current ``FleetState``.

        When every cluster server is bound into the cluster's shared
        state (``fs.covers``: standard plants, registration order), the
        "rebuild" is a handful of array slices — and if a view over the
        same state already exists with unchanged membership, it is kept
        as-is (nothing to do: the arrays are truth). Otherwise the fleet
        view is dropped (after syncing its sensor schedules) and steps
        run on the reference body until an event boundary finds the
        cluster eligible again.
        """
        cluster = self.cluster
        fs = cluster.fleet_state
        eligible = fs.covers(cluster.servers)
        fleet = self._fleet
        if fleet is not None:
            if (
                eligible
                and fleet.fs is fs
                and fleet.membership_gen == fs.membership_generation
            ):
                return
            fleet.sync()
            self._fleet = None
        if not eligible:
            return
        names = list(fs.server_names)
        self._fleet = _SoaFleet(
            fs=fs,
            engine=FleetThermalEngine(fs),
            load=FleetLoadView(fs),
            sensor_bank=SensorBank([self.sensor_for(name) for name in names]),
            names=names,
            membership_gen=fs.membership_generation,
        )

    # -- step bodies ----------------------------------------------------------

    def _reference_body(self, dt: float, new_time: float) -> None:
        """One step on the per-server reference path."""
        ambient = self.environment.temperature(new_time)
        recording = self._recording
        if recording:
            self.telemetry.record_environment(new_time, ambient)
        utilization: list[float] = []
        cpu_c: list[float] = []
        sampled: list[int] = []
        samples_c: list[float] = []
        for slot, server in enumerate(self.cluster.servers):
            load = server.step_thermal(dt, new_time, ambient)
            true_c = server.thermal.cpu_temperature_c
            utilization.append(load.utilization)
            cpu_c.append(true_c)
            if not recording:
                continue
            bundle = self.telemetry.for_server(server.name)
            bundle.utilization.append(new_time, load.utilization)
            bundle.vm_count.append(new_time, len(server.running_vms()))
            bundle.fan_count.append(new_time, server.fans.count)
            bundle.fan_speed.append(new_time, server.fans.speed)
            value = self.sensor_for(server.name).maybe_sample(new_time, true_c)
            if value is not None:
                bundle.cpu_temperature.append(new_time, value)
                sampled.append(slot)
                samples_c.append(value)
        self.step_columns = StepColumns(
            new_time,
            np.array(sampled, dtype=np.intp),
            np.array(samples_c, dtype=float),
            np.array(utilization, dtype=float),
            np.array(cpu_c, dtype=float),
        )
        for probe in self._probes:
            probe(self, new_time)

    def _soa_body(self, dt: float, new_time: float) -> None:
        """One step on the structure-of-arrays path.

        No writeback, no repack: the engine integrates the fleet-state
        arrays in place and every server/VM object is a view over them,
        so probes and events always see truthful state. Probe mutations
        are detected in O(1) by the fleet-state generation counter, and
        the follow-up "rebuild" is itself a no-op unless cluster
        membership changed.
        """
        fleet = self._fleet
        ambient = self.environment.temperature(new_time)
        recording = self._recording
        telemetry = self.telemetry
        if recording:
            telemetry.record_environment(new_time, ambient)

        utilization = fleet.load.utilizations(new_time)
        fleet.engine.step(dt, utilization, ambient)
        cpu_c = fleet.engine.cpu_temperatures_view()
        due, values = _NO_SLOTS, _NO_VALUES
        if recording:
            vm_counts, fan_counts, fan_speeds = fleet.emit_columns()
            telemetry.record_fleet_step(
                new_time, fleet.names, utilization, vm_counts, fan_counts, fan_speeds
            )
            names = fleet.names
            due, values = fleet.sensor_bank.sample_due(new_time, cpu_c)
            if due.size == len(names):
                telemetry.record_fleet_cpu_samples(new_time, names, values)
            else:
                for idx, value in zip(due.tolist(), values.tolist()):
                    telemetry.append_cpu_sample(names[idx], new_time, value)
        self.step_columns = StepColumns(new_time, due, values, utilization, cpu_c)

        if self._probes:
            fs = fleet.fs
            generation = fs.generation
            for probe in self._probes:
                probe(self, new_time)
            if (
                fs.generation != generation
                or fs.membership_generation != fleet.membership_gen
            ):
                self._fleet_rebuild()

    def _fire_due_events(self) -> None:
        for event in self.events.pop_due(self.time_s):
            event.apply(self)

    # -- initialization helpers ---------------------------------------------

    def equalize_temperatures(self) -> None:
        """Set every server's lumps to the current ambient (cold start)."""
        ambient = self.environment.temperature(self.time_s)
        for server in self.cluster.servers:
            server.thermal.set_temperatures(ambient, ambient)

    def warm_up(self, duration_s: float) -> None:
        """Advance the plant ``duration_s`` seconds without recording
        telemetry.

        Events and probes still fire, but no environment samples, server
        series, or sensor readings are produced (see the module docstring
        for the full warm-up semantics).
        """
        self._recording = False
        try:
            self.run(duration_s)
        finally:
            self._recording = True
