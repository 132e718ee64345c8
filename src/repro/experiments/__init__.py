"""Evaluation harness: scenarios, runners, datasets, and figure builders.

This is the layer the benchmarks call. Scenario generators randomize the
experiment space the paper describes (2–12 VMs, varying server configs,
fan states, environment temperatures); the runner turns one scenario into
one Eq. (2) record plus its sensor trace; figure builders assemble the
exact series behind Fig. 1(a)/(b)/(c).
"""

from repro.experiments.dataset import RecordDataset
from repro.experiments.figures import (
    Fig1aResult,
    Fig1bResult,
    Fig1cResult,
    build_fig1a,
    build_fig1b,
    build_fig1c,
)
from repro.experiments.reporting import ascii_table, format_fig1a, format_fig1b, format_fig1c
from repro.experiments.runner import ExperimentResult, profile_records, run_experiment
from repro.experiments.scenarios import (
    ExperimentScenario,
    FleetScenario,
    MigrationScenario,
    build_fleet_simulation,
    build_migration_simulation,
    build_simulation,
    random_scenario,
    random_scenarios,
)

__all__ = [
    "ExperimentResult",
    "ExperimentScenario",
    "Fig1aResult",
    "Fig1bResult",
    "Fig1cResult",
    "FleetScenario",
    "MigrationScenario",
    "RecordDataset",
    "ascii_table",
    "build_fig1a",
    "build_fig1b",
    "build_fig1c",
    "build_fleet_simulation",
    "build_migration_simulation",
    "build_simulation",
    "format_fig1a",
    "format_fig1b",
    "format_fig1c",
    "profile_records",
    "random_scenario",
    "random_scenarios",
    "run_experiment",
]
