"""Unit tests for the plant's fixed-step forward-Euler integration.

``ServerThermalModel.step`` is one explicit Euler step of the two-lump
chain and ``advance`` repeats it at the configured solver step. The
exact solution of the linear chain at constant load is a matrix
exponential, which :func:`exact_temperatures` evaluates for reference.
"""

import numpy as np
import pytest

from repro.config import ThermalConfig
from repro.errors import SimulationError
from repro.thermal.fan import FanBank
from repro.thermal.power import CpuPowerModel
from repro.thermal.server_thermal import ServerThermalModel


def make_plant(config: ThermalConfig | None = None) -> ServerThermalModel:
    return ServerThermalModel(
        power_model=CpuPowerModel.for_capacity(total_ghz=38.4, memory_gb=64.0),
        fans=FanBank(count=4, speed=0.7),
        config=config,
        initial_temperature_c=22.0,
    )


def chain_system(plant: ServerThermalModel, utilization: float, ambient_c: float):
    """``(A, b)`` of the chain's ODE ``dT/dt = A·T + b``, T = (cpu, case)."""
    config = plant.config
    c_cpu = config.cpu_heat_capacity_j_per_k
    c_case = config.case_heat_capacity_j_per_k
    g_die = 1.0 / config.cpu_to_case_resistance_k_per_w
    g_case = 1.0 / (
        config.case_to_ambient_resistance_k_per_w * plant.fans.resistance_scale()
    )
    a = np.array([
        [-g_die / c_cpu, g_die / c_cpu],
        [g_die / c_case, -(g_die + g_case) / c_case],
    ])
    b = np.array([
        plant.power_model.power(utilization) / c_cpu,
        (plant.fans.power_w() + g_case * ambient_c) / c_case,
    ])
    return a, b


def exact_temperatures(
    plant: ServerThermalModel, utilization: float, ambient_c: float, t_s: float
) -> np.ndarray:
    """Exact (cpu, case) after ``t_s`` seconds from the plant's current
    state: ``T(t) = T_ss + V·exp(Λt)·V⁻¹·(T(0) − T_ss)``."""
    a, b = chain_system(plant, utilization, ambient_c)
    steady = -np.linalg.solve(a, b)
    start = np.array([plant.cpu_temperature_c, plant.case_temperature_c])
    eigenvalues, vectors = np.linalg.eig(a)
    modes = np.linalg.solve(vectors, start - steady)
    return steady + vectors @ (np.exp(eigenvalues * t_s) * modes)


def state(plant: ServerThermalModel):
    return plant.cpu_temperature_c, plant.case_temperature_c, plant.time_s


class TestSteppers:
    def test_euler_single_step(self):
        plant = make_plant()
        plant.set_temperatures(50.0, 30.0)
        config = plant.config
        p_cpu = plant.power_model.power(0.6)
        r_case = config.case_to_ambient_resistance_k_per_w * plant.fans.resistance_scale()
        q = (30.0 - 50.0) / config.cpu_to_case_resistance_k_per_w
        expected_cpu = 50.0 + 2.0 * (p_cpu + q) / config.cpu_heat_capacity_j_per_k
        expected_case = 30.0 + 2.0 * (
            plant.fans.power_w() - q + (22.0 - 30.0) / r_case
        ) / config.case_heat_capacity_j_per_k
        plant.step(2.0, 0.6, 22.0)
        assert plant.cpu_temperature_c == pytest.approx(expected_cpu, rel=1e-14)
        assert plant.case_temperature_c == pytest.approx(expected_case, rel=1e-14)
        assert plant.time_s == 2.0

    def test_multidimensional_state(self):
        # Both lumps advance together from the *old* state: T + dt·(A·T + b).
        plant = make_plant()
        plant.set_temperatures(60.0, 25.0)
        a, b = chain_system(plant, 0.0, 22.0)
        start = np.array([60.0, 25.0])
        expected = start + 1.0 * (a @ start + b)
        plant.step(1.0, 0.0, 22.0)
        got = np.array([plant.cpu_temperature_c, plant.case_temperature_c])
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        # Heat leaves the hot CPU lump and enters the case in the same step.
        assert got[0] < 60.0 and got[1] > 25.0


class TestIntegrate:
    def test_endpoints_included(self):
        # advance() from a mid-run clock is the same steps one by one,
        # starting from the current state and ending exactly at t0 + span.
        stepped, advanced = make_plant(), make_plant()
        for plant in (stepped, advanced):
            plant.advance(100.0, utilization=0.5, ambient_c=22.0)
        assert state(stepped) == state(advanced)
        for _ in range(50):
            stepped.step(1.0, 0.7, 24.0)
        advanced.advance(50.0, utilization=0.7, ambient_c=24.0)
        assert state(advanced) == state(stepped)
        assert advanced.time_s == 150.0

    def test_final_partial_step_lands_exactly(self):
        plant = make_plant()
        plant.advance(10.3, utilization=0.5, ambient_c=22.0)
        assert plant.time_s == pytest.approx(10.3, abs=1e-12)
        whole = make_plant()
        whole.advance(10.0, utilization=0.5, ambient_c=22.0)
        # The last 0.3 s step moved the plant past the 10 s state.
        assert plant.cpu_temperature_c > whole.cpu_temperature_c

    def test_euler_converges_with_step_refinement(self):
        reference = make_plant()
        exact = exact_temperatures(reference, 0.9, 22.0, 300.0)
        errors = []
        for dt in (4.0, 1.0, 0.25):
            plant = make_plant(ThermalConfig(time_step_s=dt))
            plant.advance(300.0, utilization=0.9, ambient_c=22.0)
            got = np.array([plant.cpu_temperature_c, plant.case_temperature_c])
            errors.append(float(np.max(np.abs(got - exact))))
        assert errors[0] > errors[1] > errors[2]
        # First order: a 4× smaller step cuts the error about 4×.
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_zero_span_returns_initial(self):
        plant = make_plant()
        plant.set_temperatures(40.0, 30.0)
        plant.advance(0.0, utilization=1.0, ambient_c=22.0)
        assert state(plant) == (40.0, 30.0, 0.0)

    def test_rejects_nonpositive_dt(self):
        plant = make_plant()
        with pytest.raises(SimulationError):
            plant.step(-1.0, 0.5, 22.0)
        assert state(plant) == (22.0, 22.0, 0.0)

    def test_rejects_reversed_interval(self):
        plant = make_plant()
        with pytest.raises(SimulationError):
            plant.advance(-10.0, utilization=0.5, ambient_c=22.0)
        assert state(plant) == (22.0, 22.0, 0.0)
