"""Shared fixtures and reporting for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures (or one of
our ablations) and asserts the *shape* of the result — who wins, rough
factors, monotone trends — per the reproduction contract in DESIGN.md.

Result tables, recorded through :mod:`benchmarks.reporting`, are echoed
in the pytest terminal summary and written to the git-ignored
``.benchmarks/`` directory, so an ordinary test run never rewrites
committed files. The committed copies in
``benchmark_results/`` change only through the regenerate command::

    PYTHONPATH=src python -m pytest benchmarks -q --regenerate-results
"""

from __future__ import annotations

import pytest

from benchmarks import reporting
from repro.experiments.figures import train_default_stable_model
from repro.experiments.runner import profile_records
from repro.experiments.scenarios import random_scenarios


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-results",
        action="store_true",
        help="write benchmark result files into the committed benchmark_results/",
    )


def pytest_configure(config):
    if config.getoption("--regenerate-results", default=False):
        reporting.RESULTS_DIR = reporting.COMMITTED_RESULTS_DIR


def pytest_terminal_summary(terminalreporter):
    if not reporting.tables:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("reproduction results (paper vs measured)")
    for title, text in reporting.tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def stable_model_report():
    """Full-scale stable model shared by the dynamic-figure benchmarks."""
    return train_default_stable_model(n_train=120, seed=7, n_folds=5)


@pytest.fixture(scope="session")
def stable_model(stable_model_report):
    """The trained predictor from :func:`stable_model_report`."""
    return stable_model_report.predictor


@pytest.fixture(scope="session")
def labelled_records():
    """A labelled dataset (120 train-scale records) for model-comparison
    benchmarks; distinct seed block from the figure builders."""
    scenarios = random_scenarios(120, base_seed=400_000, n_vms_range=(2, 12))
    return profile_records(scenarios)


@pytest.fixture(scope="session")
def heldout_records():
    """Held-out labelled records matching :func:`labelled_records`."""
    scenarios = random_scenarios(30, base_seed=470_000, n_vms_range=(2, 12))
    return profile_records(scenarios)
