"""Vectorized fleet thermal engine.

The per-server :class:`~repro.thermal.server_thermal.ServerThermalModel`
advances one two-lump RC plant per Python call; fine for a handful of
servers, hopeless for the hundreds-of-hosts scale of ThermoSim-class
simulators. This module reads the *entire cluster's* plant state from
contiguous NumPy arrays — CPU/case lump temperatures, RC constants,
power-model coefficients, and fan-derived case terms — and advances every
server in a single :meth:`FleetThermalEngine.step` call.

The vectorized update replicates the scalar pipeline operation-for-
operation (same clamping, same order of additions) so trajectories match
the per-server solver to floating-point round-off:

``P_cpu  = P_idle + (P_max − P_idle)·clip(u)^α + P_mem``
``q      = (T_case − T_cpu) / R_die``
``Ṫ_cpu  = (P_cpu + q) / C_cpu``
``Ṫ_case = (P_case − q + (T_amb − T_case)/R_case) / C_case``

The engine owns no state: its arrays are zero-copy slices of a
:class:`~repro.datacenter.fleetstate.FleetState`, so :meth:`step`
integrates the shared buffers in place and every bound
``ServerThermalModel`` sees the new temperatures at once — there is
nothing to write back. The simulation builds an engine only when the
fleet state covers every cluster server (standard plants); a cluster
carrying a custom plant (any subclass of ``ServerThermalModel``, or
non-standard power/fan models) is stepped on the per-server reference
path instead.

This engine is the *simulation* half of the fleet story: it produces
the temperature traces the paper's method consumes. The *prediction*
half — the pre-defined curve ψ* (Eq. 3), Δ_update calibration (Eq. 4–7)
and Δ_gap-ahead forecasting (Eq. 8), vectorized across the cluster —
lives in :mod:`repro.serving.fleet`. Per-server/fleet parity is
enforced by ``tests/thermal/test_fleet_parity.py`` (plants) and
``tests/serving/test_fleet_service.py`` (predictions); see
``docs/architecture.md`` for the two data paths.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class FleetThermalEngine:
    """Batched two-lump RC plants over a fleet state's servers.

    Parameters
    ----------
    fs:
        :class:`~repro.datacenter.fleetstate.FleetState` whose servers
        all carry bound standard plants (``fs.covers``). The packed
        arrays are basic slices of its buffers — no copy, no repack.
        Slices go stale if the state grows, so a membership change
        requires a fresh engine.
    """

    def __init__(self, fs) -> None:
        n = fs.n_servers
        self._t_cpu = fs.t_cpu_c[:n]
        self._t_case = fs.t_case_c[:n]
        self._c_cpu = fs.c_cpu[:n]
        self._c_case = fs.c_case[:n]
        self._r_die = fs.r_die[:n]
        self._r_case = fs.r_case_eff[:n]
        self._p_idle = fs.p_idle_w[:n]
        self._p_span = fs.p_span_w[:n]
        self._p_exp = fs.p_exp[:n]
        self._p_mem = fs.p_mem_w[:n]
        self._p_case = fs.p_case_fan_w[:n]
        self._plant_time = fs.plant_time_s[:n]

    # -- dynamics ----------------------------------------------------------

    def step(self, dt_s: float, utilization: np.ndarray, ambient_c: float) -> None:
        """Advance every packed plant by ``dt_s`` seconds at once.

        ``utilization`` is indexed in fleet-state slot order;
        ``ambient_c`` is the shared inlet temperature.
        """
        if dt_s <= 0:
            raise SimulationError(f"dt_s must be > 0, got {dt_s}")
        u = np.minimum(1.0, np.maximum(0.0, utilization))
        p_cpu = self._p_idle + self._p_span * u**self._p_exp + self._p_mem
        q = (self._t_case - self._t_cpu) / self._r_die
        d_cpu = (p_cpu + q) / self._c_cpu
        d_case = (
            self._p_case - q + (ambient_c - self._t_case) / self._r_case
        ) / self._c_case
        self._t_cpu += dt_s * d_cpu
        self._t_case += dt_s * d_case
        self._plant_time += dt_s

    # -- observers ---------------------------------------------------------

    def cpu_temperatures(self) -> np.ndarray:
        """True CPU lump temperatures (copy), in fleet-state slot order."""
        return self._t_cpu.copy()

    def cpu_temperatures_view(self) -> np.ndarray:
        """Zero-copy view of CPU temperatures — treat as read-only."""
        return self._t_cpu
