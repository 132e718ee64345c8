"""Property-based tests for the thermal substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.fan import FanBank
from repro.thermal.power import CpuPowerModel
from repro.thermal.server_thermal import ServerThermalModel

utilizations = st.floats(min_value=0.0, max_value=1.0)
ambients = st.floats(min_value=10.0, max_value=40.0)


@given(utilizations, utilizations)
@settings(max_examples=60, deadline=None)
def test_power_monotone(u1, u2):
    model = CpuPowerModel()
    lo, hi = sorted((u1, u2))
    assert model.power(lo) <= model.power(hi) + 1e-12


@given(utilizations)
@settings(max_examples=60, deadline=None)
def test_power_within_declared_bounds(u):
    model = CpuPowerModel(memory_gb=0.0)
    assert model.idle_power_w - 1e-9 <= model.power(u) <= model.max_power_w + 1e-9


@given(st.integers(1, 12), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_fan_resistance_scale_positive_and_finite(count, speed):
    bank = FanBank(count=count, speed=speed)
    scale = bank.resistance_scale()
    assert 0.0 < scale < 10.0


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_fan_resistance_monotone_in_count(count_a, count_b, speed):
    lo, hi = sorted((count_a, count_b))
    weak = FanBank(count=lo, speed=speed)
    strong = FanBank(count=hi, speed=speed)
    assert strong.resistance_scale() <= weak.resistance_scale() + 1e-12


fan_banks = st.builds(
    FanBank,
    count=st.integers(1, 12),
    speed=st.floats(min_value=0.05, max_value=1.0),
)


def _plant(fans: FanBank, total_ghz: float = 38.4) -> ServerThermalModel:
    return ServerThermalModel(
        power_model=CpuPowerModel.for_capacity(total_ghz=total_ghz, memory_gb=64.0),
        fans=fans,
    )


def _case_resistance(plant: ServerThermalModel) -> float:
    return (
        plant.config.case_to_ambient_resistance_k_per_w
        * plant.fans.resistance_scale()
    )


@given(ambients, fan_banks, st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=60, deadline=None)
def test_single_lump_steady_state_formula(ambient, fans, fan_power_w_per_fan):
    """With no CPU power the chain is one case lump heated by the fans:
    it settles at ambient + R_case·P_fan, and the CPU at the case."""
    fans = FanBank(fans.count, fans.speed, fan_power_w_per_fan)
    plant = ServerThermalModel(
        power_model=CpuPowerModel(idle_power_w=0.0, memory_gb=0.0), fans=fans
    )
    expected = ambient + _case_resistance(plant) * fans.power_w()
    assert abs(plant.steady_state_cpu_temperature(0.0, ambient) - expected) < 1e-9


@given(
    utilizations,
    ambients,
    fan_banks,
    st.floats(min_value=8.0, max_value=120.0),  # total GHz
)
@settings(max_examples=60, deadline=None)
def test_plant_steady_state_formula(u, ambient, fans, total_ghz):
    """Series resistances: the case settles R_case·(P_cpu + P_fan) above
    ambient and the CPU a further R_die·P_cpu above the case."""
    plant = _plant(fans, total_ghz)
    p_cpu = plant.power_model.power(u)
    expected = (
        ambient
        + _case_resistance(plant) * (p_cpu + fans.power_w())
        + plant.config.cpu_to_case_resistance_k_per_w * p_cpu
    )
    assert abs(plant.steady_state_cpu_temperature(u, ambient) - expected) < 1e-9


@given(utilizations, ambients, fan_banks, st.integers(10, 300))
@settings(max_examples=40, deadline=None)
def test_integration_never_overshoots_steady_state_from_below(u, ambient, fans, steps):
    """A plant heated from its idle steady state approaches the loaded
    steady state monotonically in both lumps (explicit Euler is stable
    and positive at dt ≪ τ)."""
    plant = _plant(fans)
    idle_cpu = plant.steady_state_cpu_temperature(0.0, ambient)
    idle_case = ambient + _case_resistance(plant) * (
        plant.power_model.power(0.0) + fans.power_w()
    )
    plant.set_temperatures(idle_cpu, idle_case)
    steady = plant.steady_state_cpu_temperature(u, ambient)
    previous_cpu, previous_case = idle_cpu, idle_case
    for _ in range(steps):
        plant.step(1.0, u, ambient)
        cpu, case = plant.cpu_temperature_c, plant.case_temperature_c
        assert cpu >= previous_cpu - 1e-9
        assert case >= previous_case - 1e-9
        assert cpu <= steady + 1e-6
        previous_cpu, previous_case = cpu, case
