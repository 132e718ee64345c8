"""Thermal plant simulation — the testbed substitute.

This subpackage models the physical side of a server that the paper's
testbed measures with hardware sensors:

* :mod:`repro.thermal.power` — CPU package power as a function of load;
* :mod:`repro.thermal.fan` — fan bank: airflow, resistance scaling, fan power;
* :mod:`repro.thermal.sensors` — noisy, quantized, periodically sampled sensors;
* :mod:`repro.thermal.environment` — environment/inlet temperature profiles;
* :mod:`repro.thermal.server_thermal` — the assembled per-server plant, a
  two-lump (CPU die, case air) RC chain stepped with forward Euler;
* :mod:`repro.thermal.fleet` — the same chain for every server at once;
* :mod:`repro.thermal.controller` — closed-loop PI fan control.
"""

from repro.thermal.controller import FanController, FanControllerConfig
from repro.thermal.environment import (
    ConstantEnvironment,
    EnvironmentProfile,
    SinusoidalEnvironment,
    SteppedEnvironment,
)
from repro.thermal.fan import FanBank
from repro.thermal.fleet import FleetThermalEngine
from repro.thermal.power import CpuPowerModel
from repro.thermal.sensors import SensorBank, TemperatureSensor
from repro.thermal.server_thermal import ServerThermalModel

__all__ = [
    "ConstantEnvironment",
    "CpuPowerModel",
    "EnvironmentProfile",
    "FanBank",
    "FanController",
    "FanControllerConfig",
    "FleetThermalEngine",
    "SensorBank",
    "ServerThermalModel",
    "SinusoidalEnvironment",
    "SteppedEnvironment",
    "TemperatureSensor",
]
