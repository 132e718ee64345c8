"""Lint-runtime floor: the whole-program layer must stay cheap.

PR 10 moved reprolint from file-local rules to a project graph (import
graph + symbol table) shared by R005/R201/R202/R203. That graph is
built once per run and amortised across rules — this benchmark pins the
cost so the tier-1 gate (which lints every push) never quietly becomes
the slow step. Two timings:

* the full default sweep (``src tests``, all rules);
* the project rules alone (``--select`` R005,R201,R202,R203), which
  bounds what the whole-program layer itself adds.

``REPROLINT_BENCH_SMOKE=1`` keeps one repetition and a relaxed budget
for tier-1 runners; the nightly job runs the full repetitions against
the tight floor.
"""

import os
import time
from pathlib import Path

from benchmarks.reporting import record_json, record_table

from tools.reprolint import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE = bool(os.environ.get("REPROLINT_BENCH_SMOKE"))
REPS = 1 if SMOKE else 3
#: Walltime budget for one full default sweep (all rules, src+tests).
BUDGET_S = 60.0 if SMOKE else 30.0
PROJECT_RULES = {"R005", "R201", "R202", "R203"}


def _timed(select=None) -> tuple[float, int]:
    best = float("inf")
    n_files = 0
    for _ in range(REPS):
        start = time.perf_counter()
        result = run_lint(
            ["src", "tests"], root=REPO_ROOT, select=select
        )
        best = min(best, time.perf_counter() - start)
        n_files = result.n_files
        assert result.errors() == []  # the tree the benchmark times is clean
    return best, n_files


def test_reprolint_runtime_floor():
    """Acceptance: a full default sweep stays inside the walltime
    budget, and the whole-program rules cost no more than the sweep."""
    full_s, n_files = _timed()
    project_s, _ = _timed(select=PROJECT_RULES)

    assert full_s < BUDGET_S, (
        f"full reprolint sweep took {full_s:.2f}s "
        f"(budget {BUDGET_S:.0f}s) over {n_files} files"
    )
    assert project_s <= full_s * 1.5  # graph layer is not the dominant cost

    lines = [
        f"{'sweep':>24} {'walltime s':>12}",
        f"{'all rules':>24} {full_s:>12.3f}",
        f"{'project rules only':>24} {project_s:>12.3f}",
        f"{n_files} files, {REPS} rep(s), budget {BUDGET_S:.0f}s"
        f"{', smoke scale' if SMOKE else ''}",
    ]
    record_table("reprolint runtime floor (whole-program layer)", "\n".join(lines))
    record_json(
        "BENCH_reprolint.json",
        {
            "benchmark": "reprolint-runtime",
            "smoke": SMOKE,
            "n_files": n_files,
            "reps": REPS,
            "budget_s": BUDGET_S,
            "full_sweep_s": round(full_s, 4),
            "project_rules_s": round(project_s, 4),
        },
    )
