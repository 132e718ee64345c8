"""Shared fixtures and reporting for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures (or one of
our ablations) and asserts the *shape* of the result — who wins, rough
factors, monotone trends — per the reproduction contract in DESIGN.md.

Result tables are echoed in the pytest terminal summary and written to
the git-ignored ``.benchmarks/`` directory, so an ordinary test run
never rewrites committed files. The committed copies in
``benchmark_results/`` change only through the regenerate command::

    PYTHONPATH=src python -m pytest benchmarks -q --regenerate-results
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.figures import train_default_stable_model
from repro.experiments.runner import profile_records
from repro.experiments.scenarios import random_scenarios

ROOT = Path(__file__).resolve().parent.parent
#: The committed result files, rewritten only with ``--regenerate-results``.
COMMITTED_RESULTS_DIR = ROOT / "benchmark_results"
#: Where results go on an ordinary run (git-ignored).
RESULTS_DIR = ROOT / ".benchmarks"

_tables: list[tuple[str, str]] = []


def slugify_title(title: str) -> str:
    """Benchmark title → portable filename stem.

    Only ``[a-z0-9-]`` survives (runs of anything else collapse to one
    ``_``): colons and parentheses are invalid in Windows filenames, and
    the historical ``title.lower().replace(" ", "_")`` slugs produced
    names like ``ablation:_calibration_learning_rate.txt``.
    """
    slug = re.sub(r"[^a-z0-9-]+", "_", title.lower()).strip("_")
    return slug or "untitled"


def record_table(title: str, text: str) -> None:
    """Register a result table for the terminal summary and write it out."""
    _tables.append((title, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{slugify_title(title)}.txt").write_text(text + "\n")


def record_json(filename: str, payload: dict) -> None:
    """Write a machine-readable benchmark result to :data:`RESULTS_DIR`.

    Companion to :func:`record_table` for results that downstream tooling
    (CI trend tracking, the scale-sweep gate) consumes programmatically;
    ``filename`` is taken verbatim (e.g. ``BENCH_fleetstate.json``).
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-results",
        action="store_true",
        help="write benchmark result files into the committed benchmark_results/",
    )


def pytest_configure(config):
    global RESULTS_DIR
    if config.getoption("--regenerate-results", default=False):
        RESULTS_DIR = COMMITTED_RESULTS_DIR


def pytest_terminal_summary(terminalreporter):
    if not _tables:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("reproduction results (paper vs measured)")
    for title, text in _tables:
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
