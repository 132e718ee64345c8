"""Closed-loop fan control.

Real servers do not run fans at a fixed speed: the BMC adjusts speed to
hold the CPU near a set-point. This controller closes that loop in the
simulation — a proportional-integral law over the *sensor* reading (not
the true plant state), stepped on the sensor's schedule. Fan state
changes retune the thermal plant through the existing
:meth:`~repro.datacenter.server.Server.set_fan_speed` path, so the
paper's ``θ_fan`` feature remains meaningful under closed-loop control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - avoids thermal↔datacenter cycle
    from repro.datacenter.server import Server


@dataclass
class FanControllerConfig:
    """PI controller tuning."""

    setpoint_c: float = 65.0
    #: Proportional gain: speed fraction per °C of error.
    kp: float = 0.04
    #: Integral gain: speed fraction per (°C·s) of accumulated error.
    ki: float = 0.0005
    min_speed: float = 0.25
    max_speed: float = 1.0
    #: Seconds between control actions.
    period_s: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_speed < self.max_speed <= 1.0:
            raise ConfigurationError(
                f"need 0 < min_speed < max_speed <= 1, got "
                f"[{self.min_speed}, {self.max_speed}]"
            )
        if self.period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {self.period_s}")
        if self.kp < 0 or self.ki < 0:
            raise ConfigurationError("gains must be >= 0")


class FanController:
    """PI fan-speed controller for one server.

    Drive it from a simulation probe with the server's sensor readings,
    which every step publishes in ``sim.step_columns``::

        controller = FanController(server)
        slot = sim.cluster.fleet_state.server_names.index(server.name)

        def fan_probe(sim, time_s):
            step = sim.step_columns
            hit = np.flatnonzero(step.sampled == slot)
            if hit.size:
                controller.update(time_s, float(step.samples_c[hit[0]]))

        sim.add_probe(fan_probe)

    or call :meth:`update` directly with sensor readings.
    """

    def __init__(self, server: Server, config: FanControllerConfig | None = None) -> None:
        self.server = server
        self.config = config or FanControllerConfig()
        self._integral = 0.0
        self._next_action_s = 0.0
        self.actions: list[tuple[float, float]] = []

    def update(self, time_s: float, measured_c: float) -> float | None:
        """Apply one control decision if the control period elapsed.

        Returns the new speed when an action was taken, else None.
        """
        if time_s + 1e-9 < self._next_action_s:
            return None
        self._next_action_s = time_s + self.config.period_s

        error = measured_c - self.config.setpoint_c
        self._integral += error * self.config.period_s
        # Anti-windup: keep the integral inside the actuator's authority.
        if self.config.ki > 0:
            limit = (self.config.max_speed - self.config.min_speed) / self.config.ki
            self._integral = min(max(self._integral, -limit), limit)

        raw = (
            self.config.min_speed
            + self.config.kp * error
            + self.config.ki * self._integral
        )
        speed = min(max(raw, self.config.min_speed), self.config.max_speed)
        self.server.set_fan_speed(speed)
        self.actions.append((time_s, speed))
        return speed

    @property
    def current_speed(self) -> float:
        """The fan speed currently applied to the server."""
        return self.server.fans.speed

    def reset(self) -> None:
        """Clear integral state and action history."""
        self._integral = 0.0
        self._next_action_s = 0.0
        self.actions.clear()
