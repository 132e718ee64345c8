"""Assembled per-server thermal plant.

Combines the pieces of this subpackage into the two-lump chain used for
every simulated server::

    CPU power ──► [cpu die+heatsink] ──R_die──► [case air] ──R_case(fans)──► ambient
                                                  ▲
                                             fan power

``R_case`` is rescaled by the fan bank's operating point, so fan status
(the paper's ``θ_fan`` feature) genuinely changes both the steady-state
temperature and the transient.
"""

from __future__ import annotations

from repro.config import ThermalConfig
from repro.errors import SimulationError
from repro.thermal.fan import FanBank
from repro.thermal.power import CpuPowerModel


class ServerThermalModel:
    """Thermal plant of one server: power model + fan bank + two-lump chain.

    Parameters
    ----------
    power_model:
        Utilization → watts mapping for the CPU package.
    fans:
        The server's fan bank; may be replaced at runtime via
        :meth:`set_fans`.
    config:
        RC constants and solver step.
    initial_temperature_c:
        Initial temperature of both lumps (typically the ambient at t=0).
    """

    def __init__(
        self,
        power_model: CpuPowerModel,
        fans: FanBank,
        config: ThermalConfig | None = None,
        initial_temperature_c: float = 22.0,
    ) -> None:
        # FleetState view binding (set before any attribute that is a
        # property over the arrays): once a cluster registers the owning
        # server, lump temperatures and the plant clock live in the
        # shared arrays and this object becomes a view over its slot.
        self._fs = None
        self._slot = -1
        self._time_s = 0.0
        self._t_cpu = initial_temperature_c
        self._t_case = initial_temperature_c
        self.power_model = power_model
        self.config = config or ThermalConfig()
        self._fans = fans
        self._r_case = self._case_resistance()

    @property
    def time_s(self) -> float:
        """Plant-local clock (array-backed once fleet-registered)."""
        if self._fs is not None:
            return float(self._fs.plant_time_s[self._slot])
        return self._time_s

    @time_s.setter
    def time_s(self, value: float) -> None:
        if self._fs is not None:
            self._fs.set_plant_time(self._slot, value)
        else:
            self._time_s = value

    # -- fan coupling --------------------------------------------------

    @property
    def fans(self) -> FanBank:
        """Current fan bank."""
        return self._fans

    def set_fans(self, fans: FanBank) -> None:
        """Swap the fan bank (count or speed change) and retune the plant."""
        self._fans = fans
        self._r_case = self._case_resistance()
        if self._fs is not None:
            self._fs.retune_plant(self._slot, self._r_case, fans.power_w())

    def _case_resistance(self) -> float:
        return (
            self.config.case_to_ambient_resistance_k_per_w * self._fans.resistance_scale()
        )

    # -- dynamics --------------------------------------------------------

    def step(self, dt_s: float, utilization: float, ambient_c: float) -> None:
        """Advance the plant ``dt_s`` seconds at the given CPU utilization.

        Forward Euler, written exactly as
        :meth:`~repro.thermal.fleet.FleetThermalEngine.step` writes it, so
        both paths produce the same bits. The solver step (1 s) is two
        orders of magnitude below the smallest time constant (~100 s).
        """
        if dt_s <= 0:
            raise SimulationError(f"dt_s must be > 0, got {dt_s}")
        config = self.config
        p_cpu = self.power_model.power(utilization)
        t_cpu = self.cpu_temperature_c
        t_case = self.case_temperature_c
        q = (t_case - t_cpu) / config.cpu_to_case_resistance_k_per_w
        d_cpu = (p_cpu + q) / config.cpu_heat_capacity_j_per_k
        d_case = (
            self._fans.power_w() - q + (ambient_c - t_case) / self._r_case
        ) / config.case_heat_capacity_j_per_k
        self.set_temperatures(t_cpu + dt_s * d_cpu, t_case + dt_s * d_case)
        self.time_s += dt_s

    def advance(self, duration_s: float, utilization: float, ambient_c: float) -> None:
        """Integrate over a longer window at constant load, honoring the
        configured solver step."""
        if duration_s < 0:
            raise SimulationError(f"duration_s must be >= 0, got {duration_s}")
        remaining = duration_s
        dt = self.config.time_step_s
        while remaining > 1e-9:
            step = min(dt, remaining)
            self.step(step, utilization, ambient_c)
            remaining -= step

    # -- observers ---------------------------------------------------------

    @property
    def cpu_temperature_c(self) -> float:
        """True (pre-sensor) CPU lump temperature."""
        if self._fs is not None:
            return float(self._fs.t_cpu_c[self._slot])
        return self._t_cpu

    @property
    def case_temperature_c(self) -> float:
        """True case-air lump temperature."""
        if self._fs is not None:
            return float(self._fs.t_case_c[self._slot])
        return self._t_case

    def set_temperatures(self, cpu_c: float, case_c: float) -> None:
        """Set both lump temperatures (scenario initialization and
        :meth:`step`); a bound plant writes its fleet-state slot."""
        if self._fs is not None:
            self._fs.set_plant_temperatures(self._slot, cpu_c, case_c)
        else:
            self._t_cpu = cpu_c
            self._t_case = case_c

    def steady_state_cpu_temperature(self, utilization: float, ambient_c: float) -> float:
        """Exact stable CPU temperature at constant load — the physical
        quantity the paper's ψ_stable estimates from sensor data.

        Solves ``dT/dt = 0`` for the chain: the case settles at
        ``T_amb + R_case·(P_cpu + P_fan)`` and the CPU ``R_die·P_cpu``
        above it. The arithmetic is the elimination of the 2×2
        conductance system in its natural order, which rounds differently
        from the closed forms above and is kept so stable temperatures
        stay bit-identical across releases.
        """
        g_die = 1.0 / self.config.cpu_to_case_resistance_k_per_w
        g_case = 1.0 / self._r_case
        p_cpu = self.power_model.power(utilization)
        p_fan = self._fans.power_w()
        t_case = ((p_fan + ambient_c * g_case) + p_cpu) / ((g_die + g_case) - g_die)
        return (p_cpu - (-g_die) * t_case) / g_die

    def dominant_time_constant_s(self) -> float:
        """Upper-bound estimate of the slowest time constant (s).

        For the two-lump chain the slow pole is bounded by the total
        capacitance seen through the total resistance; used by tests to
        check that ``t_break`` covers the transient.
        """
        r_total = self.config.cpu_to_case_resistance_k_per_w + self._r_case
        c_total = (
            self.config.cpu_heat_capacity_j_per_k + self.config.case_heat_capacity_j_per_k
        )
        return r_total * c_total
