"""Unit tests for the RC physics of the per-server plant's two-lump chain.

``ServerThermalModel`` is a CPU lump and a case lump in a chain:
``R_die`` between them and the fan-scaled ``R_case`` to ambient. CPU
power enters the CPU lump and fan power enters the case lump.
"""

import pytest

from repro.config import ThermalConfig
from repro.errors import ConfigurationError
from repro.thermal.fan import FanBank
from repro.thermal.power import CpuPowerModel
from repro.thermal.server_thermal import ServerThermalModel
from tests.thermal.test_solver import exact_temperatures


def two_lump_chain(
    fans: FanBank | None = None, config: ThermalConfig | None = None
) -> ServerThermalModel:
    return ServerThermalModel(
        power_model=CpuPowerModel.for_capacity(total_ghz=38.4, memory_gb=64.0),
        fans=fans or FanBank(count=4, speed=0.7),
        config=config,
        initial_temperature_c=22.0,
    )


def single_lump(fan_power_w_per_fan: float = 9.0) -> ServerThermalModel:
    """A chain whose CPU draws no power at idle: no heat crosses ``R_die``
    in steady state, so only the case lump, heated by its fans, is left."""
    return ServerThermalModel(
        power_model=CpuPowerModel(idle_power_w=0.0, memory_gb=0.0),
        fans=FanBank(count=4, speed=0.7, max_power_w_per_fan=fan_power_w_per_fan),
        initial_temperature_c=20.0,
    )


def case_resistance(plant: ServerThermalModel) -> float:
    return plant.config.case_to_ambient_resistance_k_per_w * plant.fans.resistance_scale()


class TestSingleLump:
    def test_steady_state_matches_analytic(self):
        plant = single_lump()
        # T_ss = T_amb + P_fan·R_case, and the idle CPU sits at the case.
        expected = 20.0 + plant.fans.power_w() * case_resistance(plant)
        assert plant.steady_state_cpu_temperature(0.0, 20.0) == pytest.approx(
            expected, rel=1e-12
        )
        plant.advance(8000.0, utilization=0.0, ambient_c=20.0)
        assert plant.case_temperature_c == pytest.approx(expected, abs=1e-3)
        assert plant.cpu_temperature_c == pytest.approx(expected, abs=1e-3)

    def test_transient_matches_exponential(self):
        plant = single_lump()
        expected = exact_temperatures(plant, 0.0, 20.0, 300.0)
        plant.advance(300.0, utilization=0.0, ambient_c=20.0)
        assert plant.case_temperature_c == pytest.approx(expected[1], abs=0.01)
        assert plant.cpu_temperature_c == pytest.approx(expected[0], abs=0.01)
        # Still rising: the transient is not yet settled at 300 s.
        assert plant.case_temperature_c < plant.steady_state_cpu_temperature(0.0, 20.0)

    def test_no_power_relaxes_to_ambient(self):
        plant = single_lump(fan_power_w_per_fan=0.0)
        plant.set_temperatures(80.0, 60.0)
        plant.advance(10_000.0, utilization=0.0, ambient_c=20.0)
        assert plant.cpu_temperature_c == pytest.approx(20.0, abs=1e-3)
        assert plant.case_temperature_c == pytest.approx(20.0, abs=1e-3)


class TestTwoLumpChain:
    def test_steady_state_series_resistance(self):
        plant = two_lump_chain()
        p_cpu = plant.power_model.power(0.8)
        p_fan = plant.fans.power_w()
        r_die = plant.config.cpu_to_case_resistance_k_per_w
        expected = 22.0 + case_resistance(plant) * (p_cpu + p_fan) + r_die * p_cpu
        assert plant.steady_state_cpu_temperature(0.8, 22.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_power_into_case_heats_case_only_path(self):
        # Fan power enters at the case: it does not flow through the die
        # resistance, so it lifts both lumps by R_case·ΔP_fan and leaves the
        # CPU–case gap (R_die·P_cpu) unchanged.
        quiet = two_lump_chain(FanBank(count=4, speed=0.7, max_power_w_per_fan=0.0))
        loud = two_lump_chain(FanBank(count=4, speed=0.7, max_power_w_per_fan=20.0))
        delta = loud.steady_state_cpu_temperature(0.5, 22.0) - quiet.steady_state_cpu_temperature(
            0.5, 22.0
        )
        assert delta == pytest.approx(case_resistance(loud) * loud.fans.power_w(), rel=1e-9)
        for plant in (quiet, loud):
            plant.advance(8000.0, utilization=0.5, ambient_c=22.0)
        gap_quiet = quiet.cpu_temperature_c - quiet.case_temperature_c
        gap_loud = loud.cpu_temperature_c - loud.case_temperature_c
        assert gap_loud == pytest.approx(gap_quiet, abs=1e-3)
        assert loud.case_temperature_c - quiet.case_temperature_c == pytest.approx(
            delta, abs=1e-3
        )

    def test_integration_converges_to_steady_state(self):
        plant = two_lump_chain()
        plant.advance(6000.0, utilization=0.8, ambient_c=22.0)
        assert plant.cpu_temperature_c == pytest.approx(
            plant.steady_state_cpu_temperature(0.8, 22.0), abs=0.01
        )
        # After a fan retune it converges again, to the new steady state.
        plant.set_fans(FanBank(count=2, speed=0.5))
        plant.advance(8000.0, utilization=0.8, ambient_c=22.0)
        target = plant.steady_state_cpu_temperature(0.8, 22.0)
        assert plant.cpu_temperature_c == pytest.approx(target, abs=0.01)
        p_cpu = plant.power_model.power(0.8)
        case = 22.0 + case_resistance(plant) * (p_cpu + plant.fans.power_w())
        assert plant.case_temperature_c == pytest.approx(case, abs=0.01)

    def test_cpu_hotter_than_case_under_cpu_load(self):
        plant = two_lump_chain()
        plant.advance(2000.0, utilization=0.8, ambient_c=22.0)
        assert plant.cpu_temperature_c > plant.case_temperature_c > 22.0

    def test_retuning_edge_changes_steady_state(self):
        # A larger die resistance widens only the CPU–case gap.
        base = two_lump_chain()
        stiff = two_lump_chain(config=ThermalConfig(cpu_to_case_resistance_k_per_w=0.36))
        p_cpu = base.power_model.power(0.6)
        before = base.steady_state_cpu_temperature(0.6, 22.0)
        after = stiff.steady_state_cpu_temperature(0.6, 22.0)
        assert after - before == pytest.approx((0.36 - 0.18) * p_cpu, rel=1e-9)
        for plant in (base, stiff):
            plant.advance(8000.0, utilization=0.6, ambient_c=22.0)
        assert stiff.case_temperature_c == pytest.approx(base.case_temperature_c, abs=1e-3)

    def test_retuning_ambient_resistance_changes_steady_state(self):
        # A fan retune rescales R_case; the steady state follows the series
        # formula at the new resistance and fan power.
        plant = two_lump_chain()
        before = plant.steady_state_cpu_temperature(0.6, 22.0)
        plant.set_fans(FanBank(count=2, speed=0.5))
        after = plant.steady_state_cpu_temperature(0.6, 22.0)
        assert after > before
        p_cpu = plant.power_model.power(0.6)
        expected = (
            22.0
            + case_resistance(plant) * (p_cpu + plant.fans.power_w())
            + plant.config.cpu_to_case_resistance_k_per_w * p_cpu
        )
        assert after == pytest.approx(expected, abs=1e-9)


class TestValidation:
    def test_nonpositive_capacity_rejected(self):
        for field in ("cpu_heat_capacity_j_per_k", "case_heat_capacity_j_per_k"):
            for value in (0.0, -150.0):
                with pytest.raises(ConfigurationError):
                    ThermalConfig(**{field: value})

    def test_nonpositive_step_rejected(self):
        # The solver step of advance() is validated with the constants.
        with pytest.raises(ConfigurationError):
            ThermalConfig(time_step_s=0.0)
        with pytest.raises(ConfigurationError):
            two_lump_chain().config.with_(time_step_s=-1.0)
