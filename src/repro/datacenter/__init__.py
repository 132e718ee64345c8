"""Virtualized-datacenter substrate.

Everything the paper's testbed provides besides raw physics lives here:
servers, VMs and their workloads, the hypervisor (VMM), clusters, a
discrete-event engine, live migration, placement schedulers, a telemetry
pipeline, and the co-simulation loop that ties the event layer to the
thermal plant of :mod:`repro.thermal`.
"""

from repro.datacenter.cluster import Cluster
from repro.datacenter.events import Event, EventQueue, FunctionEvent
from repro.datacenter.migration import MigrationPlan, plan_migration
from repro.datacenter.resources import ResourceCapacity, ResourceDemand
from repro.datacenter.scheduler import (
    BestFitScheduler,
    FirstFitScheduler,
    PlacementScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.telemetry import TelemetryCollector, TimeSeries
from repro.datacenter.vm import Vm, VmSpec, VmState
from repro.datacenter.vmm import HostLoad, Vmm
from repro.datacenter.workload import (
    BurstyTask,
    ConstantTask,
    PeriodicTask,
    RampTask,
    Task,
    random_task,
)

__all__ = [
    "BestFitScheduler",
    "BurstyTask",
    "Cluster",
    "ConstantTask",
    "DatacenterSimulation",
    "Event",
    "EventQueue",
    "FirstFitScheduler",
    "FunctionEvent",
    "HostLoad",
    "MigrationPlan",
    "PeriodicTask",
    "PlacementScheduler",
    "RampTask",
    "RandomScheduler",
    "ResourceCapacity",
    "ResourceDemand",
    "RoundRobinScheduler",
    "Server",
    "ServerSpec",
    "Task",
    "TelemetryCollector",
    "TimeSeries",
    "Vm",
    "VmSpec",
    "VmState",
    "Vmm",
    "plan_migration",
    "random_task",
]
