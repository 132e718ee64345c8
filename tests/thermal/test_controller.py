"""Unit tests for the closed-loop fan controller."""

import inspect
import textwrap

import numpy as np
import pytest

from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.thermal.controller import FanController, FanControllerConfig
from tests.conftest import make_server_spec, make_vm


def loaded_server(level=1.0) -> Server:
    server = Server(make_server_spec(fan_speed=0.4))
    server.host_vm(make_vm("hot", vcpus=8, level=level, n_tasks=8))
    return server


class TestControlLaw:
    def test_hot_reading_raises_speed(self):
        server = loaded_server()
        controller = FanController(server, FanControllerConfig(setpoint_c=65.0))
        before = server.fans.speed
        controller.update(0.0, measured_c=80.0)
        assert server.fans.speed > before

    def test_cool_reading_keeps_speed_low(self):
        server = loaded_server()
        controller = FanController(server, FanControllerConfig(setpoint_c=65.0))
        controller.update(0.0, measured_c=40.0)
        assert server.fans.speed == pytest.approx(
            controller.config.min_speed
        )

    def test_speed_saturates_at_max(self):
        server = loaded_server()
        controller = FanController(server, FanControllerConfig(setpoint_c=65.0))
        controller.update(0.0, measured_c=200.0)
        assert server.fans.speed == controller.config.max_speed

    def test_respects_control_period(self):
        server = loaded_server()
        controller = FanController(
            server, FanControllerConfig(setpoint_c=65.0, period_s=10.0)
        )
        assert controller.update(0.0, 80.0) is not None
        assert controller.update(5.0, 80.0) is None
        assert controller.update(10.0, 80.0) is not None

    def test_actions_logged(self):
        server = loaded_server()
        controller = FanController(server)
        controller.update(0.0, 80.0)
        controller.update(20.0, 80.0)
        assert len(controller.actions) == 2

    def test_reset_clears_state(self):
        server = loaded_server()
        controller = FanController(server)
        controller.update(0.0, 90.0)
        controller.reset()
        assert controller.actions == []
        assert controller.update(0.0, 90.0) is not None


class TestClosedLoopRegulation:
    def test_holds_setpoint_under_load(self):
        """Run the plant under full load with the controller in the loop:
        the steady temperature must settle near the set-point, which a
        fixed low fan speed cannot achieve."""
        server = loaded_server(level=1.0)
        config = FanControllerConfig(setpoint_c=70.0, period_s=5.0)
        controller = FanController(server, config)
        for t in range(4000):
            server.step_thermal(1.0, float(t), ambient_c=22.0)
            controller.update(float(t), server.thermal.cpu_temperature_c)
        settled = server.thermal.cpu_temperature_c
        assert settled == pytest.approx(70.0, abs=4.0)

    def test_integral_term_removes_offset(self):
        """With ki > 0 the residual error shrinks versus pure-P control."""
        def run(ki):
            server = loaded_server(level=0.9)
            config = FanControllerConfig(setpoint_c=70.0, kp=0.02, ki=ki, period_s=5.0)
            controller = FanController(server, config)
            for t in range(6000):
                server.step_thermal(1.0, float(t), ambient_c=22.0)
                controller.update(float(t), server.thermal.cpu_temperature_c)
            return abs(server.thermal.cpu_temperature_c - 70.0)

        assert run(ki=0.0005) < run(ki=0.0) + 1e-9


class TestValidation:
    def test_rejects_bad_speed_band(self):
        with pytest.raises(ConfigurationError):
            FanControllerConfig(min_speed=0.9, max_speed=0.5)

    def test_rejects_negative_gains(self):
        with pytest.raises(ConfigurationError):
            FanControllerConfig(kp=-0.1)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            FanControllerConfig(period_s=0.0)


def documented_wiring() -> str:
    """The probe wiring from the ``FanController`` docstring, as code."""
    doc = inspect.cleandoc(FanController.__doc__)
    block = doc.split("::\n", 1)[1].split("\nor call", 1)[0]
    return textwrap.dedent(block)


class TestSimulationWiring:
    def test_documented_probe_wiring_drives_the_plant(self):
        server = loaded_server()
        cluster = Cluster("fans")
        cluster.add_server(Server(make_server_spec(name="idle")))
        cluster.add_server(server)
        sim = DatacenterSimulation(cluster=cluster, rng=RngFactory(5))
        namespace = {"FanController": FanController, "np": np, "server": server, "sim": sim}
        exec(documented_wiring(), namespace)
        controller = namespace["controller"]
        sim.run(1500.0)

        # One action per control period, each on a fresh sensor reading.
        assert len(controller.actions) >= 100
        assert len({speed for _, speed in controller.actions}) > 1
        plant = server.thermal
        assert plant.fans.speed == controller.current_speed != 0.4
        # The bound plant's fleet-state coefficients follow each retune.
        fs = cluster.fleet_state
        slot = fs.server_names.index(server.name)
        assert fs.r_case_eff[slot] == (
            plant.config.case_to_ambient_resistance_k_per_w
            * plant.fans.resistance_scale()
        )
        assert fs.p_case_fan_w[slot] == plant.fans.power_w()
        assert plant.cpu_temperature_c == pytest.approx(
            controller.config.setpoint_c, abs=4.0
        )
