"""Result tables and JSON files that the benchmarks record.

Benchmarks import :func:`record_table` and :func:`record_json` from
here, never from ``conftest.py``: pytest loads ``benchmarks/conftest.py``
under the bare name ``conftest``, so ``import benchmarks.conftest`` would
build a second module object whose tables the terminal summary never
sees and whose results directory ``--regenerate-results`` never moves.
This module is imported once by both, so the conftest hooks and the
benchmarks share :data:`RESULTS_DIR` and the recorded tables.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The committed result files, rewritten only with ``--regenerate-results``.
COMMITTED_RESULTS_DIR = ROOT / "benchmark_results"
#: Where results go: the git-ignored ``.benchmarks/`` on an ordinary run,
#: :data:`COMMITTED_RESULTS_DIR` under ``--regenerate-results``.
RESULTS_DIR = ROOT / ".benchmarks"

#: (title, text) of every table recorded in this session, in order.
tables: list[tuple[str, str]] = []


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
    tables.append((title, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{slugify_title(title)}.txt").write_text(text + "\n")


def record_json(filename: str, payload: dict) -> None:
    """Write a machine-readable benchmark result to :data:`RESULTS_DIR`.

    Companion to :func:`record_table` for results that downstream tooling
    (CI trend tracking, the scale-sweep gate) consumes programmatically;
    ``filename`` is taken verbatim (e.g. ``BENCH_fleetstate.json``).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
