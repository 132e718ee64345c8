"""Shared fixtures for the test suite.

Expensive artefacts (simulated experiment records, a trained stable
model) are session-scoped: they are built once and shared by every test
that needs realistic data, keeping the suite fast without stubbing the
system under test.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig
from repro.core.pipeline import train_stable_predictor
from repro.core.records import ExperimentRecord, VmRecord
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import ConstantTask
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_scenarios
from repro.rng import RngFactory


def make_server_spec(
    name: str = "srv",
    cores: int = 16,
    ghz: float = 2.4,
    memory_gb: float = 64.0,
    fan_count: int = 4,
    fan_speed: float = 0.7,
) -> ServerSpec:
    """A commodity server spec for unit tests."""
    return ServerSpec(
        name=name,
        capacity=ResourceCapacity(cpu_cores=cores, ghz_per_core=ghz, memory_gb=memory_gb),
        fan_count=fan_count,
        fan_speed=fan_speed,
    )


def make_vm(
    name: str = "vm",
    vcpus: int = 2,
    memory_gb: float = 4.0,
    level: float = 0.6,
    n_tasks: int = 1,
) -> Vm:
    """A VM running constant-load tasks."""
    spec = VmSpec(
        name=name,
        vcpus=vcpus,
        memory_gb=memory_gb,
        tasks=tuple(ConstantTask(level=level) for _ in range(n_tasks)),
    )
    return Vm(spec)


def make_record(
    psi: float | None = 55.0,
    n_vms: int = 3,
    fan_count: int = 4,
    env: float = 22.0,
    util: float = 0.5,
    kind: str = "constant",
) -> ExperimentRecord:
    """A synthetic Eq. (2) record without running a simulation."""
    vms = tuple(
        VmRecord(
            vcpus=2,
            memory_gb=4.0,
            task_kinds=(kind,),
            nominal_utilization=util,
        )
        for _ in range(n_vms)
    )
    return ExperimentRecord(
        theta_cpu_cores=16,
        theta_cpu_ghz=38.4,
        theta_memory_gb=64.0,
        theta_fan_count=fan_count,
        theta_fan_speed=0.7,
        delta_env_c=env,
        vms=vms,
        psi_stable_c=psi,
    )


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: a real end-to-end run that takes tens of seconds"
    )


@pytest.fixture
def server_spec() -> ServerSpec:
    """Fresh commodity server spec."""
    return make_server_spec()

@pytest.fixture
def server(server_spec) -> Server:
    """Fresh server runtime instance."""
    return Server(server_spec)


@pytest.fixture(scope="session")
def experiment_records():
    """30 simulated Eq. (2) records (short runs, session-cached)."""
    scenarios = random_scenarios(
        30, base_seed=77_000, n_vms_range=(2, 8), duration_s=1000.0
    )
    return [run_experiment(s).record for s in scenarios]


@pytest.fixture(scope="session")
def trained_predictor(experiment_records):
    """A stable model trained on the session records (tiny grid)."""
    report = train_stable_predictor(
        experiment_records,
        n_splits=5,
        c_grid=(512.0,),
        gamma_grid=(0.02,),
        epsilon_grid=(0.125,),
        rng=RngFactory(11).stream("cv"),
    )
    return report.predictor


@pytest.fixture(scope="session")
def short_config() -> ExperimentConfig:
    """Experiment config with a short but valid duration."""
    return ExperimentConfig(duration_s=900.0)
