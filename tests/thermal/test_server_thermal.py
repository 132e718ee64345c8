"""Unit tests for the assembled server thermal plant."""

import numpy as np
import pytest

from repro.config import ThermalConfig
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.errors import SimulationError
from repro.thermal.fan import FanBank
from repro.thermal.fleet import FleetThermalEngine
from repro.thermal.power import CpuPowerModel
from repro.thermal.server_thermal import ServerThermalModel
from tests.conftest import make_server_spec


def make_plant(fans: FanBank | None = None, initial: float = 22.0) -> ServerThermalModel:
    return ServerThermalModel(
        power_model=CpuPowerModel.for_capacity(total_ghz=38.4, memory_gb=64.0),
        fans=fans or FanBank(count=4, speed=0.7),
        initial_temperature_c=initial,
    )


def case_resistance(plant: ServerThermalModel) -> float:
    return plant.config.case_to_ambient_resistance_k_per_w * plant.fans.resistance_scale()


def series_steady_state(plant: ServerThermalModel, u: float, ambient: float):
    """(cpu, case) steady state of the chain from the series resistances."""
    p_cpu = plant.power_model.power(u)
    case = ambient + case_resistance(plant) * (p_cpu + plant.fans.power_w())
    return case + plant.config.cpu_to_case_resistance_k_per_w * p_cpu, case


class TestSteadyState:
    def test_loaded_hotter_than_idle(self):
        plant = make_plant()
        idle = plant.steady_state_cpu_temperature(0.0, 22.0)
        loaded = plant.steady_state_cpu_temperature(1.0, 22.0)
        assert loaded > idle > 22.0

    def test_plausible_commodity_temperatures(self):
        plant = make_plant()
        idle = plant.steady_state_cpu_temperature(0.0, 22.0)
        loaded = plant.steady_state_cpu_temperature(1.0, 22.0)
        assert 30.0 < idle < 55.0
        assert 60.0 < loaded < 95.0

    def test_ambient_shifts_steady_state_linearly(self):
        plant = make_plant()
        t20 = plant.steady_state_cpu_temperature(0.5, 20.0)
        t26 = plant.steady_state_cpu_temperature(0.5, 26.0)
        assert t26 - t20 == pytest.approx(6.0, abs=1e-9)

    def test_more_fans_cooler(self):
        weak = make_plant(FanBank(count=2, speed=0.7))
        strong = make_plant(FanBank(count=8, speed=0.7))
        assert strong.steady_state_cpu_temperature(
            0.8, 22.0
        ) < weak.steady_state_cpu_temperature(0.8, 22.0)


class TestDynamics:
    def test_converges_to_steady_state(self):
        plant = make_plant()
        target = plant.steady_state_cpu_temperature(0.7, 22.0)
        plant.advance(4000.0, utilization=0.7, ambient_c=22.0)
        assert plant.cpu_temperature_c == pytest.approx(target, abs=0.05)
        _, case = series_steady_state(plant, 0.7, 22.0)
        assert plant.case_temperature_c == pytest.approx(case, abs=0.05)

    def test_cools_back_to_idle_steady_state(self):
        plant = make_plant()
        plant.set_temperatures(90.0, 60.0)
        plant.advance(6000.0, utilization=0.0, ambient_c=22.0)
        assert plant.cpu_temperature_c == pytest.approx(
            plant.steady_state_cpu_temperature(0.0, 22.0), abs=0.01
        )

    def test_mostly_settled_within_t_break(self):
        # The paper's t_break=600 s premise: the transient is mostly done.
        plant = make_plant()
        start = plant.cpu_temperature_c
        target = plant.steady_state_cpu_temperature(0.9, 22.0)
        plant.advance(600.0, utilization=0.9, ambient_c=22.0)
        progress = (plant.cpu_temperature_c - start) / (target - start)
        assert progress > 0.9

    def test_monotone_rise_under_constant_load(self):
        plant = make_plant()
        temps = []
        for _ in range(60):
            plant.advance(10.0, utilization=0.8, ambient_c=22.0)
            temps.append(plant.cpu_temperature_c)
        assert temps == sorted(temps)

    def test_fan_change_mid_run_cools_plant(self):
        plant = make_plant(FanBank(count=2, speed=0.5))
        plant.advance(2000.0, utilization=0.8, ambient_c=22.0)
        hot = plant.cpu_temperature_c
        plant.set_fans(FanBank(count=8, speed=1.0))
        plant.advance(2000.0, utilization=0.8, ambient_c=22.0)
        assert plant.cpu_temperature_c < hot - 2.0

    def test_rejects_nonpositive_step(self):
        plant = make_plant()
        with pytest.raises(SimulationError):
            plant.step(0.0, 0.5, 22.0)


class TestConfigCoupling:
    def test_time_constant_estimate_positive_and_bounded(self):
        plant = make_plant()
        tau = plant.dominant_time_constant_s()
        assert 0.0 < tau < 3600.0

    def test_custom_config_respected(self):
        config = ThermalConfig(cpu_to_case_resistance_k_per_w=0.36)
        plant = ServerThermalModel(
            power_model=CpuPowerModel(),
            fans=FanBank(),
            config=config,
        )
        default = make_plant()
        assert plant.steady_state_cpu_temperature(
            1.0, 22.0
        ) > default.steady_state_cpu_temperature(1.0, 22.0)

    def test_set_temperatures_forces_state(self):
        plant = make_plant()
        plant.set_temperatures(70.0, 40.0)
        assert plant.cpu_temperature_c == 70.0
        assert plant.case_temperature_c == 40.0


def bound_and_unbound_twin(name: str = "bound"):
    """A plant bound to a one-server cluster and an identical unbound one."""
    cluster = Cluster("bind")
    server = Server(make_server_spec(name=name))
    cluster.add_server(server)
    twin = Server(make_server_spec(name=name)).thermal
    return cluster, server.thermal, twin


class TestFleetStateBinding:
    def test_unbound_step_matches_engine_step_bitwise(self):
        cluster, _, twin = bound_and_unbound_twin()
        engine = FleetThermalEngine(cluster.fleet_state)
        for k in range(600):
            u = ((k * 37) % 110) / 100.0
            ambient = 20.0 + (k % 40) * 0.1
            engine.step(1.0, np.array([u]), ambient)
            twin.step(1.0, u, ambient)
        cpu = engine.cpu_temperatures()
        assert cpu[0] == twin.cpu_temperature_c
        assert cluster.fleet_state.t_case_c[0] == twin.case_temperature_c
        assert cluster.fleet_state.plant_time_s[0] == twin.time_s

    def test_binding_carries_state_into_slot(self):
        server = Server(make_server_spec(name="late"))
        plant = server.thermal
        plant.set_temperatures(55.0, 31.0)
        plant.time_s = 120.0
        cluster = Cluster("bind")
        cluster.add_server(server)
        fs = cluster.fleet_state
        slot = fs.server_names.index("late")
        assert (fs.t_cpu_c[slot], fs.t_case_c[slot], fs.plant_time_s[slot]) == (
            55.0, 31.0, 120.0
        )
        assert (plant.cpu_temperature_c, plant.case_temperature_c, plant.time_s) == (
            55.0, 31.0, 120.0
        )

    def test_bound_plant_and_fleet_arrays_are_one_state(self):
        cluster, plant, _ = bound_and_unbound_twin()
        fs = cluster.fleet_state
        fs.set_plant_temperatures(0, 61.0, 33.0)
        assert (plant.cpu_temperature_c, plant.case_temperature_c) == (61.0, 33.0)
        plant.step(1.0, 0.5, 22.0)
        assert fs.t_cpu_c[0] == plant.cpu_temperature_c != 61.0
        assert fs.t_case_c[0] == plant.case_temperature_c != 33.0
        assert fs.plant_time_s[0] == plant.time_s == 1.0

    def test_set_fans_on_bound_plant_retunes_slot(self):
        cluster, plant, twin = bound_and_unbound_twin()
        fans = FanBank(count=7, speed=0.9)
        plant.set_fans(fans)
        twin.set_fans(fans)
        fs = cluster.fleet_state
        assert fs.r_case_eff[0] == case_resistance(plant)
        assert fs.p_case_fan_w[0] == fans.power_w()
        assert plant.steady_state_cpu_temperature(
            0.7, 22.0
        ) == twin.steady_state_cpu_temperature(0.7, 22.0)
        engine = FleetThermalEngine(fs)
        for _ in range(50):
            engine.step(1.0, np.array([0.7]), 22.0)
            twin.step(1.0, 0.7, 22.0)
        assert plant.cpu_temperature_c == twin.cpu_temperature_c
