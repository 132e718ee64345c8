"""Unit tests for scenario generation."""

import pickle

import pytest

from repro.datacenter.server import ResourceCapacity, Server, ServerSpec
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import ConstantTask
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    FleetScenario,
    build_fleet_simulation,
    build_migration_simulation,
    build_simulation,
    class_balanced_fleet_scenario,
    cooling_failure_scenario,
    diurnal_fleet_scenario,
    flash_crowd_scenario,
    migration_scenario,
    migration_storm_scenario,
    model_drift_scenario,
    random_scenario,
    random_scenarios,
    thermal_cascade_scenario,
)


class TestRandomScenario:
    def test_deterministic_for_seed(self):
        a = random_scenario(123)
        b = random_scenario(123)
        assert a.server == b.server
        assert a.n_vms == b.n_vms
        assert [v.name for v in a.vm_specs] == [v.name for v in b.vm_specs]

    def test_different_seeds_differ(self):
        variety = {random_scenario(seed).n_vms for seed in range(120, 140)}
        assert len(variety) > 3

    def test_vm_count_in_requested_range(self):
        for seed in range(50, 70):
            scenario = random_scenario(seed, n_vms_range=(2, 12))
            assert 2 <= scenario.n_vms <= 12

    def test_pinned_fan_count(self):
        for seed in range(30, 40):
            assert random_scenario(seed, fan_count=4).server.fan_count == 4

    def test_env_temperature_in_range(self):
        for seed in range(30, 50):
            scenario = random_scenario(seed, env_temp_range=(18.0, 28.0))
            assert 18.0 <= scenario.environment.temperature(0.0) <= 28.0

    def test_generated_vms_always_fit(self):
        for seed in range(200, 230):
            scenario = random_scenario(seed)
            server = Server(scenario.server)
            for spec in scenario.vm_specs:
                server.host_vm(Vm(spec))  # raises CapacityError on overflow

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            random_scenario(1, n_vms_range=(5, 2))

    def test_batch_generator_counts(self):
        scenarios = random_scenarios(7, base_seed=900)
        assert len(scenarios) == 7
        assert len({s.seed for s in scenarios}) == 7


class TestBuildSimulation:
    def test_vms_running_at_start(self):
        scenario = random_scenario(55)
        sim = build_simulation(scenario)
        server = sim.cluster.server(scenario.server.name)
        assert len(server.running_vms()) == scenario.n_vms

    def test_initial_temperature_is_idle_steady_state(self):
        scenario = random_scenario(55)
        sim = build_simulation(scenario)
        server = sim.cluster.server(scenario.server.name)
        ambient = scenario.environment.temperature(0.0)
        idle = server.thermal.steady_state_cpu_temperature(0.0, ambient)
        assert server.thermal.cpu_temperature_c == pytest.approx(idle)
        assert server.thermal.cpu_temperature_c > ambient


class TestMigrationScenario:
    def test_structure(self):
        scenario = migration_scenario(42, migration_time_s=900.0)
        assert scenario.migrating_vm == "vm-migrant"
        assert scenario.migration_time_s == 900.0
        assert scenario.base.server.fan_count == 4

    def test_simulation_moves_vm(self):
        scenario = migration_scenario(42, migration_time_s=100.0, duration_s=700.0)
        sim, destination, plan = build_migration_simulation(scenario)
        assert plan.duration_s > 0
        sim.run(700.0)
        dest_server = sim.cluster.server(destination)
        assert "vm-migrant" in dest_server.vms

    def test_migration_heats_destination(self):
        scenario = migration_scenario(42, migration_time_s=900.0, duration_s=2400.0)
        sim, destination, _plan = build_migration_simulation(scenario)
        sim.run(2400.0)
        trace = sim.telemetry.for_server(destination).cpu_temperature
        before = trace.mean(700.0, 900.0)
        after = trace.mean(2100.0, 2400.0)
        assert after > before + 2.0


class TestFleetScenarios:
    def test_diurnal_fleet_shape(self):
        scenario = diurnal_fleet_scenario(n_servers=12, seed=500)
        assert scenario.n_servers == 12
        assert scenario.n_vms >= 12 * 2
        assert scenario.migrations == ()
        # Deterministic: the same seed reproduces the same fleet.
        again = diurnal_fleet_scenario(n_servers=12, seed=500)
        assert [s.name for s in again.server_specs] == [
            s.name for s in scenario.server_specs
        ]
        assert again.vm_specs[3][0].memory_gb == scenario.vm_specs[3][0].memory_gb

    def test_diurnal_fleet_builds_and_runs(self):
        scenario = diurnal_fleet_scenario(n_servers=8, seed=501, duration_s=600.0)
        sim = build_fleet_simulation(scenario)
        sim.run(120.0)
        assert sim.time_s == 120.0
        names = sim.telemetry.server_names
        assert len(names) == 8
        for name in names:
            bundle = sim.telemetry.for_server(name)
            assert len(bundle.utilization) == 120
            assert len(bundle.cpu_temperature) > 0
        # Heterogeneous hardware and load → heterogeneous temperatures.
        temps = [s.thermal.cpu_temperature_c for s in sim.cluster.servers]
        assert max(temps) - min(temps) > 1.0

    def test_diurnal_fleet_racked(self):
        scenario = diurnal_fleet_scenario(n_servers=20, seed=502)
        sim = build_fleet_simulation(scenario)
        racks = sim.cluster.racks()
        assert set(racks) == {"rack-0", "rack-1"}
        assert len(racks["rack-0"]) == 16

    def test_migration_storm_moves_vms(self):
        scenario = migration_storm_scenario(
            n_servers=8, seed=510, storm_start_s=30.0, storm_window_s=20.0,
            duration_s=300.0,
        )
        assert len(scenario.migrations) == 4
        sim = build_fleet_simulation(scenario)
        sim.run(200.0)
        for i in range(4):
            destination = sim.cluster.server(f"server-{i + 4:03d}")
            assert f"migrant-{i:03d}" in destination.vms
            assert destination.active_migrations == 0
        # The storm heats the destinations.
        assert sim.cluster.server("server-005").thermal.cpu_temperature_c > 30.0

    def test_migration_storm_matches_reference_path(self):
        def final_temps(use_fleet):
            scenario = migration_storm_scenario(
                n_servers=6, seed=511, storm_start_s=20.0, storm_window_s=15.0,
                duration_s=200.0,
            )
            sim = build_fleet_simulation(scenario, use_fleet_engine=use_fleet)
            sim.run(150.0)
            return [s.thermal.cpu_temperature_c for s in sim.cluster.servers]

        fleet = final_temps(True)
        reference = final_temps(False)
        assert fleet == pytest.approx(reference, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            migration_storm_scenario(n_servers=5)
        with pytest.raises(ConfigurationError):
            diurnal_fleet_scenario(n_servers=0)
        with pytest.raises(ConfigurationError):
            diurnal_fleet_scenario(vms_per_server=(3, 2))


class TestModelDriftScenario:
    """The lifecycle's regime-shift workload."""

    def test_fleet_is_bit_identical_to_class_balanced_at_same_seed(self):
        """The load-bearing guarantee: a registry trained on the calm
        class-balanced campaign serves the drift fleet with matching
        class keys, because both draw identical hardware + initial
        placements from the same seed."""
        calm = class_balanced_fleet_scenario(
            n_classes=3, servers_per_class=4, seed=87_000
        )
        drift = model_drift_scenario(
            n_classes=3, servers_per_class=4, seed=87_000, duration_s=3600.0
        )
        assert drift.server_specs == calm.server_specs
        assert drift.vm_specs == calm.vm_specs

    def test_ambient_ramps_and_waves_are_scheduled(self):
        scenario = model_drift_scenario(
            n_classes=2, servers_per_class=4, seed=87_000, duration_s=7200.0,
            ramp_delta_c=6.0,
        )
        env = scenario.environment
        assert env.temperature(0.0) == pytest.approx(22.0)
        assert env.temperature(7200.0) == pytest.approx(28.0)
        assert len(scenario.arrivals) > 0
        times = [t for t, _, _ in scenario.arrivals]
        assert times == sorted(times)
        # Two waves: some arrivals before 60% of the run, some after.
        assert min(times) < 0.6 * 7200.0 < max(times)

    def test_single_wave_option(self):
        scenario = model_drift_scenario(
            n_classes=2, servers_per_class=4, seed=87_000, duration_s=3600.0,
            second_wave=False,
        )
        names = {vm.name for _, _, vm in scenario.arrivals}
        assert all(name.endswith("-w0") for name in names)

    def test_arrivals_respect_static_capacity(self):
        scenario = model_drift_scenario(
            n_classes=3, servers_per_class=4, seed=87_000, duration_s=3600.0
        )
        sim = build_fleet_simulation(scenario)
        sim.run(3600.0)  # a capacity fault would raise mid-run
        hosted = sum(len(s.vms) for s in sim.cluster.servers)
        assert hosted == scenario.n_vms + len(scenario.arrivals)

    def test_rejects_bad_timing(self):
        with pytest.raises(ConfigurationError):
            model_drift_scenario(duration_s=1000.0, ramp_start_s=2000.0)
        with pytest.raises(ConfigurationError):
            model_drift_scenario(shift_fraction=1.5)
        # Overlapping waves would land a server's second-wave VM before
        # its first-wave VM.
        with pytest.raises(ConfigurationError, match="overlap"):
            model_drift_scenario(
                n_classes=2, servers_per_class=4, shift_start_s=2400.0,
                shift_window_s=1800.0, second_wave_start_s=3000.0,
                second_wave_window_s=600.0,
            )


class TestControlStressScenarios:
    """The three workloads the closed-loop control plane must survive."""

    def test_cooling_failure_steps_the_room(self):
        scenario = cooling_failure_scenario(
            n_servers=8, failure_time_s=300.0, failure_delta_c=8.0,
            recovery_time_s=900.0, duration_s=1200.0,
        )
        env = scenario.environment
        assert env.temperature(0.0) == pytest.approx(22.0)
        assert env.temperature(400.0) == pytest.approx(30.0)
        assert env.temperature(1000.0) == pytest.approx(22.0)

    def test_cooling_failure_pushes_only_hot_servers_over(self):
        scenario = cooling_failure_scenario(
            n_servers=8, failure_time_s=300.0, duration_s=2400.0
        )
        sim = build_fleet_simulation(scenario)
        sim.run(2400.0)
        temps = {s.name: s.thermal.cpu_temperature_c for s in sim.cluster.servers}
        hot = [f"server-{i:03d}" for i in range(2)]
        assert all(temps[name] > 75.0 for name in hot)
        assert all(temps[name] < 65.0 for name in temps if name not in hot)

    def test_cooling_failure_hot_servers_safe_before_failure(self):
        scenario = cooling_failure_scenario(
            n_servers=8, failure_time_s=2000.0, duration_s=2400.0
        )
        sim = build_fleet_simulation(scenario)
        sim.run(1900.0)
        assert all(
            s.thermal.cpu_temperature_c < 75.0 for s in sim.cluster.servers
        )

    def test_thermal_cascade_concentrates_heat_in_rack_zero(self):
        scenario = thermal_cascade_scenario(n_servers=8, duration_s=2400.0)
        sim = build_fleet_simulation(scenario)
        racks = sim.cluster.racks()
        sim.run(2400.0)
        hot_rack = {
            name: sim.cluster.server(name).thermal.cpu_temperature_c
            for name in racks["rack-0"]
        }
        cold = {
            s.name: s.thermal.cpu_temperature_c
            for s in sim.cluster.servers
            if s.name not in hot_rack
        }
        assert all(temp > 75.0 for temp in hot_rack.values())
        assert all(temp < 65.0 for temp in cold.values())

    def test_flash_crowd_arrivals_land_mid_run(self):
        scenario = flash_crowd_scenario(
            n_servers=8, spike_time_s=300.0, duration_s=2400.0
        )
        sim = build_fleet_simulation(scenario)
        target = sim.cluster.server("server-000")
        baseline_vms = len(target.vms)
        sim.run(250.0)
        assert len(target.vms) == baseline_vms  # crowd not here yet
        sim.run(2150.0)
        assert len(target.vms) == baseline_vms + 4
        assert target.thermal.cpu_temperature_c > 75.0

    def test_stress_validation(self):
        with pytest.raises(ConfigurationError):
            cooling_failure_scenario(failure_time_s=0.0)
        with pytest.raises(ConfigurationError):
            cooling_failure_scenario(
                failure_time_s=600.0, recovery_time_s=600.0
            )
        with pytest.raises(ConfigurationError):
            cooling_failure_scenario(hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            thermal_cascade_scenario(n_servers=4)
        with pytest.raises(ConfigurationError):
            flash_crowd_scenario(spike_time_s=5000.0, duration_s=3600.0)
        for hot_fraction in (1.5, -1.0):
            with pytest.raises(ConfigurationError, match="hot_fraction"):
                flash_crowd_scenario(n_servers=8, hot_fraction=hot_fraction)


class TestFleetSimulationPickles:
    """A built fleet simulation is plain data: it pickles, and the copy
    runs on bit for bit like the original."""

    @staticmethod
    def _final_bits(sim) -> list[str]:
        telemetry = sim.telemetry
        bits = []
        for name in telemetry.server_names:
            bundle = telemetry.for_server(name)
            for series in (bundle.cpu_temperature, bundle.utilization,
                           bundle.vm_count, bundle.fan_speed):
                bits.extend(float(t).hex() for t in series.times_array())
                bits.extend(float(v).hex() for v in series.values_array())
            thermal = sim.cluster.server(name).thermal
            bits.append(thermal.cpu_temperature_c.hex())
            bits.append(thermal.case_temperature_c.hex())
        return bits

    @pytest.mark.parametrize("pickled_at_s", [0.0, 150.0])
    def test_flash_crowd_copy_runs_bitwise(self, pickled_at_s):
        scenario = flash_crowd_scenario(
            n_servers=8, duration_s=900.0, spike_time_s=300.0
        )
        sim = build_fleet_simulation(scenario)
        if pickled_at_s:
            sim.run(pickled_at_s)
        copy = pickle.loads(pickle.dumps(sim))
        sim.run(scenario.duration_s - pickled_at_s)
        copy.run(scenario.duration_s - pickled_at_s)
        assert len(sim.cluster.server("server-000").vms) == 5  # crowd landed
        assert self._final_bits(copy) == self._final_bits(sim)


class TestFleetScenarioValidation:
    """Edge cases of FleetScenario's arrival/migration timing contract."""

    @staticmethod
    def _fleet(**overrides):
        from repro.thermal.environment import ConstantEnvironment

        def vm(name):
            return VmSpec(
                name=name, vcpus=2, memory_gb=4.0,
                tasks=(ConstantTask(level=0.5),),
            )

        kwargs = dict(
            name="tiny",
            server_specs=tuple(
                ServerSpec(
                    name=f"server-{i:03d}",
                    capacity=ResourceCapacity(
                        cpu_cores=8, ghz_per_core=2.4, memory_gb=32.0
                    ),
                    fan_count=2,
                    fan_speed=0.7,
                )
                for i in range(2)
            ),
            vm_specs=((vm("vm-a"),), (vm("vm-b"),)),
            environment=ConstantEnvironment(22.0),
            duration_s=600.0,
        )
        kwargs.update(overrides)
        return FleetScenario(**kwargs)

    def _arrival_vm(self):
        return VmSpec(
            name="vm-new", vcpus=2, memory_gb=4.0,
            tasks=(ConstantTask(level=0.5),),
        )

    def test_arrival_at_t0_is_legal_and_fires(self):
        scenario = self._fleet(
            arrivals=((0.0, "server-001", self._arrival_vm()),)
        )
        sim = build_fleet_simulation(scenario)
        sim.run(10.0)
        assert "vm-new" in sim.cluster.server("server-001").vms

    def test_arrival_at_or_after_duration_is_rejected(self):
        # Pinned: such an arrival would silently never fire, so the
        # scenario refuses to construct rather than lie about its load.
        for time_s in (600.0, 9000.0):
            with pytest.raises(ConfigurationError, match="silently never fire"):
                self._fleet(arrivals=((time_s, "server-001", self._arrival_vm()),))

    def test_negative_arrival_time_is_rejected(self):
        with pytest.raises(ConfigurationError, match="precedes the start"):
            self._fleet(arrivals=((-1.0, "server-001", self._arrival_vm()),))

    def test_arrival_to_unknown_server_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown server"):
            self._fleet(arrivals=((10.0, "server-042", self._arrival_vm()),))

    def test_migration_timing_and_names_validated(self):
        with pytest.raises(ConfigurationError, match="silently never fire"):
            self._fleet(migrations=((600.0, "vm-a", "server-001"),))
        with pytest.raises(ConfigurationError, match="unknown server"):
            self._fleet(migrations=((10.0, "vm-a", "server-042"),))
        with pytest.raises(ConfigurationError, match="initially placed"):
            self._fleet(migrations=((10.0, "vm-zz", "server-001"),))

    def test_simultaneous_arrival_and_migration_on_same_server(self):
        # Both land on server-001 at t=100 and must coexist: the arrival
        # hosts immediately, the migration completes after its pre-copy.
        scenario = self._fleet(
            arrivals=((100.0, "server-001", self._arrival_vm()),),
            migrations=((100.0, "vm-a", "server-001"),),
        )
        sim = build_fleet_simulation(scenario)
        sim.run(400.0)
        destination = sim.cluster.server("server-001")
        assert "vm-new" in destination.vms
        assert "vm-a" in destination.vms
        assert "vm-a" not in sim.cluster.server("server-000").vms
        assert destination.active_migrations == 0
