"""Thermal plant simulation — the testbed substitute.

This subpackage models the physical side of a server that the paper's
testbed measures with hardware sensors:

* :mod:`repro.thermal.power` — CPU package power as a function of load;
* :mod:`repro.thermal.rc` — generic resistor–capacitor thermal networks;
* :mod:`repro.thermal.solver` — fixed-step ODE integrators;
* :mod:`repro.thermal.fan` — fan bank: airflow, resistance scaling, fan power;
* :mod:`repro.thermal.sensors` — noisy, quantized, periodically sampled sensors;
* :mod:`repro.thermal.environment` — environment/inlet temperature profiles;
* :mod:`repro.thermal.server_thermal` — the assembled per-server plant.
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
from repro.thermal.rc import RcNetwork, ThermalNode
from repro.thermal.sensors import SensorBank, TemperatureSensor
from repro.thermal.server_thermal import ServerThermalModel
from repro.thermal.solver import euler_step, integrate, rk4_step

__all__ = [
    "ConstantEnvironment",
    "CpuPowerModel",
    "EnvironmentProfile",
    "FanBank",
    "FanController",
    "FanControllerConfig",
    "FleetThermalEngine",
    "RcNetwork",
    "SensorBank",
    "ServerThermalModel",
    "SinusoidalEnvironment",
    "SteppedEnvironment",
    "TemperatureSensor",
    "ThermalNode",
    "euler_step",
    "integrate",
    "rk4_step",
]
