"""Unit tests for the co-simulation loop."""

import pytest

from repro.config import SensorConfig
from repro.datacenter.cluster import Cluster
from repro.datacenter.events import FunctionEvent
from repro.datacenter.migration import migrate_vm
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import MigrationError, SimulationError
from repro.rng import RngFactory
from repro.thermal.environment import ConstantEnvironment
from tests.conftest import make_server_spec, make_vm


def make_sim(n_servers: int = 1, noise: float = 0.0) -> DatacenterSimulation:
    cluster = Cluster("sim-test")
    for i in range(n_servers):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    return DatacenterSimulation(
        cluster=cluster,
        environment=ConstantEnvironment(22.0),
        rng=RngFactory(123),
        sensor_config=SensorConfig(
            sampling_period_s=5.0, noise_std_c=noise, quantization_c=0.0
        ),
    )


class TestRunLoop:
    def test_time_advances(self):
        sim = make_sim()
        sim.run(100.0)
        assert sim.time_s == pytest.approx(100.0)

    def test_run_accumulates(self):
        sim = make_sim()
        sim.run(50.0)
        sim.run(50.0)
        assert sim.time_s == pytest.approx(100.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(SimulationError):
            make_sim().run(0.0)

    def test_telemetry_recorded_for_each_server(self):
        sim = make_sim(n_servers=2)
        sim.run(60.0)
        for name in ("s0", "s1"):
            bundle = sim.telemetry.for_server(name)
            assert len(bundle.utilization) == 60
            assert len(bundle.cpu_temperature) > 0

    def test_sensor_sampling_respects_period(self):
        sim = make_sim()
        sim.run(100.0)
        temps = sim.telemetry.for_server("s0").cpu_temperature
        deltas = [b - a for a, b in zip(temps.times, temps.times[1:])]
        # The very first sample fires on the first sim step; every
        # subsequent interval matches the configured 5 s period.
        assert all(d == pytest.approx(5.0) for d in deltas[1:])
        assert 0.0 < deltas[0] <= 5.0

    def test_loaded_server_heats_up(self):
        sim = make_sim()
        server = sim.cluster.server("s0")
        server.host_vm(make_vm("hot", vcpus=8, level=1.0, n_tasks=8))
        sim.equalize_temperatures()
        start = server.thermal.cpu_temperature_c
        sim.run(600.0)
        assert server.thermal.cpu_temperature_c > start + 10.0

    def test_probe_called_every_step(self):
        sim = make_sim()
        ticks = []
        sim.add_probe(lambda _sim, t: ticks.append(t))
        sim.run(10.0)
        assert len(ticks) == 10


class TestIntervalProbes:
    def test_interval_probe_fires_on_its_own_grid(self):
        sim = make_sim()
        ticks = []
        sim.add_probe(lambda _sim, t: ticks.append(t), interval_s=5.0)
        sim.run(30.0)
        # Arms at the first step (t=1), first firing at t=6, then every 5 s.
        assert ticks == [pytest.approx(6.0), pytest.approx(11.0),
                         pytest.approx(16.0), pytest.approx(21.0),
                         pytest.approx(26.0)]

    def test_interval_grid_survives_run_boundaries(self):
        sim = make_sim()
        ticks = []
        sim.add_probe(lambda _sim, t: ticks.append(t), interval_s=7.0)
        sim.run(10.0)
        sim.run(10.0)
        continuous = make_sim()
        continuous_ticks = []
        continuous.add_probe(
            lambda _sim, t: continuous_ticks.append(t), interval_s=7.0
        )
        continuous.run(20.0)
        assert ticks == continuous_ticks

    def test_interval_probe_on_fleet_path_matches_reference_path(self):
        for use_fleet in (True, False):
            sim = make_sim(n_servers=2)
            sim.use_fleet_engine = use_fleet
            ticks = []
            sim.add_probe(lambda _sim, t: ticks.append(t), interval_s=4.0)
            sim.run(20.0)
            assert ticks == [pytest.approx(5.0), pytest.approx(9.0),
                             pytest.approx(13.0), pytest.approx(17.0)]

    def test_rejects_nonpositive_interval(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.add_probe(lambda _sim, t: None, interval_s=0.0)

    def test_recording_property_reflects_warm_up(self):
        sim = make_sim()
        states = []
        sim.add_probe(lambda s, t: states.append(s.recording))
        sim.warm_up(2.0)
        sim.run(2.0)
        assert states == [False, False, True, True]


class TestEvents:
    def test_scheduled_event_fires_at_time(self):
        sim = make_sim()
        fired = []
        sim.schedule(FunctionEvent(5.0, lambda s: fired.append(s.time_s)))
        sim.run(10.0)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(5.0)

    def test_event_at_time_zero_fires(self):
        sim = make_sim()
        fired = []
        sim.schedule(FunctionEvent(0.0, lambda s: fired.append(True)))
        sim.run(1.0)
        assert fired == [True]

    def test_fan_change_event_affects_temperature(self):
        sim = make_sim()
        server = sim.cluster.server("s0")
        server.host_vm(make_vm("load", vcpus=8, level=1.0, n_tasks=8))
        sim.schedule(FunctionEvent(600.0, lambda s: s.cluster.server("s0").set_fan_speed(1.0)))
        sim.run(600.0)
        hot = server.thermal.cpu_temperature_c
        sim.run(900.0)
        assert server.thermal.cpu_temperature_c < hot


class TestMigrationIntegration:
    def test_vm_moves_between_servers(self):
        sim = make_sim(n_servers=2)
        source = sim.cluster.server("s0")
        source.host_vm(make_vm("wanderer", memory_gb=4.0))
        migrate_vm(sim, "wanderer", "s1", start_time_s=10.0)
        sim.run(300.0)
        assert "wanderer" in sim.cluster.server("s1").vms
        assert "wanderer" not in source.vms

    def test_migration_overhead_cleared_after_completion(self):
        sim = make_sim(n_servers=2)
        sim.cluster.server("s0").host_vm(make_vm("w", memory_gb=4.0))
        migrate_vm(sim, "w", "s1", start_time_s=10.0)
        sim.run(300.0)
        assert sim.cluster.server("s0").active_migrations == 0
        assert sim.cluster.server("s1").active_migrations == 0

    def test_migration_logged(self):
        sim = make_sim(n_servers=2)
        sim.cluster.server("s0").host_vm(make_vm("w", memory_gb=4.0))
        migrate_vm(sim, "w", "s1", start_time_s=10.0)
        sim.run(300.0)
        messages = [m for _, m in sim.telemetry.event_log]
        assert any("started" in m for m in messages)
        assert any("completed" in m for m in messages)

    def test_migration_to_same_host_rejected(self):
        sim = make_sim(n_servers=2)
        sim.cluster.server("s0").host_vm(make_vm("w", memory_gb=4.0))
        with pytest.raises(MigrationError):
            migrate_vm(sim, "w", "s0", start_time_s=10.0)

    def test_migration_to_full_host_rejected(self):
        sim = make_sim(n_servers=2)
        sim.cluster.server("s0").host_vm(make_vm("w", memory_gb=4.0))
        sim.cluster.server("s1").host_vm(make_vm("filler", memory_gb=62.0))
        with pytest.raises(MigrationError):
            migrate_vm(sim, "w", "s1", start_time_s=10.0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace():
            sim = make_sim(noise=0.3)
            sim.cluster.server("s0").host_vm(make_vm("v", vcpus=4, level=0.7))
            sim.run(120.0)
            return sim.telemetry.for_server("s0").cpu_temperature.values

        assert trace() == trace()


class TestWarmUp:
    def test_warm_up_records_no_telemetry(self):
        sim = make_sim()
        sim.cluster.server("s0").host_vm(make_vm("v", vcpus=4, level=0.8))
        sim.warm_up(120.0)
        assert len(sim.telemetry.environment) == 0
        bundle = sim.telemetry.for_server("s0")
        assert len(bundle.utilization) == 0
        assert len(bundle.cpu_temperature) == 0
        assert sim.step_columns.sampled.size == 0

    def test_warm_up_advances_physics(self):
        sim = make_sim()
        server = sim.cluster.server("s0")
        server.host_vm(make_vm("v", vcpus=8, level=1.0, n_tasks=8))
        sim.equalize_temperatures()
        start = server.thermal.cpu_temperature_c
        sim.warm_up(300.0)
        assert sim.time_s == pytest.approx(300.0)
        assert server.thermal.cpu_temperature_c > start + 5.0

    def test_warm_up_then_run_records_only_run(self):
        sim = make_sim()
        sim.cluster.server("s0").host_vm(make_vm("v", vcpus=4, level=0.6))
        sim.warm_up(60.0)
        sim.run(60.0)
        utilization = sim.telemetry.for_server("s0").utilization
        assert len(utilization) == 60
        assert utilization.times[0] == pytest.approx(61.0)

    def test_warm_up_still_fires_events(self):
        sim = make_sim()
        fired = []
        sim.schedule(FunctionEvent(5.0, lambda s: fired.append(s.time_s)))
        sim.warm_up(10.0)
        assert len(fired) == 1

    def test_recording_restored_after_error(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.warm_up(0.0)
        assert sim._recording is True


class TestFleetEngineToggle:
    def test_both_modes_available(self):
        for use_fleet in (True, False):
            sim = DatacenterSimulation(
                cluster=Cluster("toggle"), use_fleet_engine=use_fleet
            )
            assert sim.use_fleet_engine is use_fleet

    def test_modes_agree_on_trace(self):
        def trace(use_fleet):
            cluster = Cluster("sim-test")
            cluster.add_server(Server(make_server_spec(name="s0")))
            sim = DatacenterSimulation(
                cluster=cluster,
                environment=ConstantEnvironment(22.0),
                rng=RngFactory(123),
                use_fleet_engine=use_fleet,
            )
            sim.cluster.server("s0").host_vm(make_vm("v", vcpus=4, level=0.7))
            sim.run(120.0)
            return sim.telemetry.for_server("s0").cpu_temperature.values

        assert trace(True) == trace(False)

    def test_fleet_state_dropped_between_runs(self):
        sim = make_sim()
        sim.run(30.0)
        assert sim._fleet is None
        # Mutations between runs must be honored by the next run.
        sim.cluster.server("s0").set_fan_speed(1.0)
        sim.run(30.0)
        assert sim.telemetry.for_server("s0").fan_speed.values[-1] == 1.0
