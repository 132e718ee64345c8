"""Parity tests: the vectorized fleet engine must match the per-server
reference path to floating-point round-off.

These are the contract behind ``DatacenterSimulation(use_fleet_engine=True)``
being the default: a 10-minute mixed-load run — constant, periodic, ramp,
and bursty (stateful, Python-fallback) tasks — including a mid-run
fan-count change and a live VM migration, must produce the same thermal
trajectories (≤ 1e-9), identical sensor readings, and identical telemetry
on both paths.
"""

import numpy as np
import pytest

from repro.config import SensorConfig, ThermalConfig
from repro.datacenter.cluster import Cluster
from repro.datacenter.events import FunctionEvent
from repro.datacenter.migration import migrate_vm
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import BurstyTask, ConstantTask, PeriodicTask, RampTask
from repro.rng import RngFactory
from repro.thermal.fleet import FleetThermalEngine
from repro.thermal.server_thermal import ServerThermalModel

N_SERVERS = 8
DURATION_S = 600.0


def build_mixed_sim(use_fleet: bool, seed: int = 42) -> DatacenterSimulation:
    """An N-server cluster exercising every task family plus events."""
    factory = RngFactory(seed)
    cluster = Cluster("parity")
    for i in range(N_SERVERS):
        spec = ServerSpec(
            name=f"s{i}",
            capacity=ResourceCapacity(cpu_cores=16, ghz_per_core=2.4, memory_gb=64.0),
            fan_count=4,
            fan_speed=0.6 + 0.05 * (i % 4),
        )
        server = Server(spec)
        tasks_by_server = [
            (ConstantTask(level=0.7),),
            (PeriodicTask(mean=0.5, amplitude=0.2, period_s=240.0, phase_s=30.0 * i),),
            (RampTask(start_level=0.2, end_level=0.9, ramp_s=400.0),),
            (
                BurstyTask(rng=factory.stream(f"bursty/{i}")),
                ConstantTask(level=0.3),
            ),
        ]
        for j, tasks in enumerate(tasks_by_server):
            server.host_vm(
                Vm(VmSpec(name=f"vm-{i}-{j}", vcpus=2, memory_gb=4.0, tasks=tasks))
            )
        cluster.add_server(server)
    sim = DatacenterSimulation(
        cluster=cluster,
        rng=RngFactory(seed).fork("sim"),
        sensor_config=SensorConfig(sampling_period_s=5.0, noise_std_c=0.3),
        use_fleet_engine=use_fleet,
    )
    # Mid-run fan-count change on a hot server, and oversubscription via an
    # extra VM landing through live migration.
    sim.schedule(
        FunctionEvent(200.0, lambda s: s.cluster.server("s1").set_fan_count(8))
    )
    sim.schedule(
        FunctionEvent(350.0, lambda s: s.cluster.server("s2").set_fan_speed(1.0))
    )
    migrate_vm(sim, "vm-3-0", destination="s4", start_time_s=300.0)
    return sim


@pytest.fixture(scope="module")
def sim_pair():
    reference = build_mixed_sim(use_fleet=False)
    fleet = build_mixed_sim(use_fleet=True)
    trace_ref: dict[str, list] = {f"s{i}": [] for i in range(N_SERVERS)}
    trace_fleet: dict[str, list] = {f"s{i}": [] for i in range(N_SERVERS)}

    def tracer(store):
        def probe(sim, time_s):
            for server in sim.cluster.servers:
                store[server.name].append(
                    (server.thermal.cpu_temperature_c, server.thermal.case_temperature_c)
                )

        return probe

    reference.add_probe(tracer(trace_ref))
    fleet.add_probe(tracer(trace_fleet))
    reference.run(DURATION_S)
    fleet.run(DURATION_S)
    return reference, fleet, trace_ref, trace_fleet


class TestTrajectoryParity:
    def test_per_step_trajectories_match(self, sim_pair):
        _, _, trace_ref, trace_fleet = sim_pair
        for name in trace_ref:
            a = np.asarray(trace_ref[name])
            b = np.asarray(trace_fleet[name])
            assert a.shape == b.shape == (int(DURATION_S), 2)
            assert np.max(np.abs(a - b)) <= 1e-9, name

    def test_final_state_matches(self, sim_pair):
        reference, fleet, _, _ = sim_pair
        for ref_server, fleet_server in zip(
            reference.cluster.servers, fleet.cluster.servers
        ):
            assert fleet_server.thermal.cpu_temperature_c == pytest.approx(
                ref_server.thermal.cpu_temperature_c, abs=1e-9
            )
            assert fleet_server.thermal.time_s == pytest.approx(
                ref_server.thermal.time_s, abs=1e-9
            )

    def test_events_applied_identically(self, sim_pair):
        reference, fleet, _, _ = sim_pair
        assert fleet.cluster.server("s1").fans.count == 8
        assert fleet.cluster.server("s2").fans.speed == 1.0
        assert "vm-3-0" in fleet.cluster.server("s4").vms
        assert "vm-3-0" not in fleet.cluster.server("s3").vms
        assert reference.cluster.server("s1").fans.count == 8
        assert "vm-3-0" in reference.cluster.server("s4").vms


class TestTelemetryParity:
    def test_sensor_readings_identical(self, sim_pair):
        reference, fleet, _, _ = sim_pair
        for i in range(N_SERVERS):
            name = f"s{i}"
            ref_series = reference.telemetry.for_server(name).cpu_temperature
            fleet_series = fleet.telemetry.for_server(name).cpu_temperature
            assert ref_series.times == fleet_series.times
            assert ref_series.values == fleet_series.values

    def test_vmm_series_match(self, sim_pair):
        reference, fleet, _, _ = sim_pair
        for i in range(N_SERVERS):
            name = f"s{i}"
            ref = reference.telemetry.for_server(name)
            flt = fleet.telemetry.for_server(name)
            assert flt.utilization.times == ref.utilization.times
            np.testing.assert_allclose(
                flt.utilization.values, ref.utilization.values, atol=1e-12
            )
            assert flt.vm_count.values == ref.vm_count.values
            assert flt.fan_count.values == ref.fan_count.values
            assert flt.fan_speed.values == ref.fan_speed.values

    def test_environment_series_match(self, sim_pair):
        reference, fleet, _, _ = sim_pair
        assert (
            fleet.telemetry.environment.values == reference.telemetry.environment.values
        )


class TracingPlant(ServerThermalModel):
    """A custom plant subclass: forces its cluster onto the reference path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.step_calls = 0

    def step(self, dt_s, utilization, ambient_c):
        self.step_calls += 1
        super().step(dt_s, utilization, ambient_c)


def swap_in_tracing_plant(server) -> TracingPlant:
    """Replace ``server``'s plant with a ``TracingPlant`` at the same state."""
    custom = TracingPlant(
        power_model=server.spec.build_power_model(),
        fans=server.fans,
        config=ThermalConfig(),
    )
    custom.set_temperatures(
        server.thermal.cpu_temperature_c, server.thermal.case_temperature_c
    )
    custom.time_s = server.thermal.time_s
    server.thermal = custom
    return custom


_SERIES = ("cpu_temperature", "utilization", "vm_count", "fan_count", "fan_speed")


def assert_bitwise_equal(fleet, reference) -> None:
    """Every telemetry series, every sensor's readings, and the final
    plant state must be bitwise equal across the two runs."""
    assert fleet.telemetry.server_names == reference.telemetry.server_names
    for name in reference.telemetry.server_names:
        a = fleet.telemetry.for_server(name)
        b = reference.telemetry.for_server(name)
        for series in _SERIES:
            sa, sb = getattr(a, series), getattr(b, series)
            assert np.array_equal(sa.times_array(), sb.times_array()), (name, series)
            assert np.array_equal(sa.values_array(), sb.values_array()), (name, series)
        assert fleet.sensor_for(name).readings == reference.sensor_for(name).readings
    assert np.array_equal(
        fleet.telemetry.environment.values_array(),
        reference.telemetry.environment.values_array(),
    )
    for fleet_server, ref_server in zip(
        fleet.cluster.servers, reference.cluster.servers
    ):
        a, b = fleet_server.thermal, ref_server.thermal
        assert a.cpu_temperature_c == b.cpu_temperature_c
        assert a.case_temperature_c == b.case_temperature_c
        assert a.time_s == b.time_s


class TestCustomPlantFallback:
    def test_custom_plant_stepped_per_server_and_matches_reference(self):
        fleet = build_mixed_sim(use_fleet=True, seed=7)
        reference = build_mixed_sim(use_fleet=False, seed=7)
        swap_in_tracing_plant(fleet.cluster.server("s5"))
        swap_in_tracing_plant(reference.cluster.server("s5"))
        fleet.run(120.0)
        reference.run(120.0)
        assert fleet.cluster.server("s5").thermal.step_calls == 120
        assert_bitwise_equal(fleet, reference)

    def test_mid_run_plant_swap_matches_reference(self):
        """A scheduled event swaps in a custom plant mid-run: the fleet
        run leaves the SoA path at that step and stays bitwise equal to
        the reference run."""

        def run(use_fleet: bool):
            sim = build_mixed_sim(use_fleet=use_fleet, seed=13)
            sim.schedule(
                FunctionEvent(
                    250.0, lambda s: swap_in_tracing_plant(s.cluster.server("s6"))
                )
            )
            soa_steps: list[bool] = []
            sim.add_probe(
                lambda s, t: soa_steps.append(s.fleet_cpu_samples is not None)
            )
            sim.run(DURATION_S)
            return sim, soa_steps

        fleet, fleet_soa = run(True)
        reference, reference_soa = run(False)
        assert fleet_soa == [True] * 249 + [False] * 351
        assert not any(reference_soa)
        assert fleet.cluster.server("s6").thermal.step_calls == 351
        assert reference.cluster.server("s6").thermal.step_calls == 351
        assert_bitwise_equal(fleet, reference)


class TestEngineUnit:
    def test_single_step_matches_scalar_plant(self):
        # Bound plants alias the fleet-state arrays, so the engine runs
        # over one cluster and the scalar plants step on an identical twin.
        engine_sim = build_mixed_sim(use_fleet=True, seed=11)
        scalar_sim = build_mixed_sim(use_fleet=True, seed=11)
        engine = FleetThermalEngine(engine_sim.cluster.fleet_state)
        expected = []
        for server in scalar_sim.cluster.servers:
            server.thermal.step(1.0, 0.63, 21.5)
            expected.append(server.thermal.cpu_temperature_c)
        engine.step(1.0, np.full(N_SERVERS, 0.63), 21.5)
        np.testing.assert_allclose(engine.cpu_temperatures(), expected, atol=1e-12)
        # The engine stepped the bound plants themselves: no writeback.
        plants = [server.thermal for server in engine_sim.cluster.servers]
        temperatures = engine.cpu_temperatures().tolist()
        assert [p.cpu_temperature_c for p in plants] == temperatures
        assert all(p.time_s == 1.0 for p in plants)


class TestProbeMutationDetection:
    """Read-only probes keep the fleet fast path; mutating probes must be
    detected (fleet-state generation counter)."""

    def _run_with_probe(self, use_fleet: bool):
        sim = build_mixed_sim(use_fleet=use_fleet, seed=21)

        def controller_probe(s, t):
            # A closed-loop policy mutating through public APIs.
            if t == 100.0:
                s.cluster.server("s0").set_fan_speed(1.0)
            if t == 150.0:
                s.cluster.server("s1").thermal.set_temperatures(80.0, 50.0)

        sim.add_probe(controller_probe)
        sim.run(300.0)
        return sim

    def test_probe_mutations_match_reference(self):
        fleet = self._run_with_probe(True)
        reference = self._run_with_probe(False)
        for ref_server, fleet_server in zip(
            reference.cluster.servers, fleet.cluster.servers
        ):
            assert fleet_server.thermal.cpu_temperature_c == pytest.approx(
                ref_server.thermal.cpu_temperature_c, abs=1e-9
            )
        assert fleet.cluster.server("s0").fans.speed == 1.0

    def test_fan_speed_telemetry_reflects_probe_change(self):
        fleet = self._run_with_probe(True)
        speeds = fleet.telemetry.for_server("s0").fan_speed
        assert speeds.value_at(90.0) < 1.0
        assert speeds.value_at(150.0) == 1.0
