"""Benchmark: scenario-fuzz throughput and invariant-check coverage.

How fast can the declarative path sample + compile + run fuzzed
scenarios under the full invariant harness? The nightly CI job sweeps
200 seeds with ``--strict``; this benchmark records the sustained
scenarios-per-second of the same pipeline and pins a modest floor so a
compiler or harness regression that makes the sweep 10x slower fails
loudly rather than silently stretching the nightly wall clock.

``SCENARIO_BENCH_SMOKE=1`` shrinks the sweep for CI.
"""

import os
import time

from repro.experiments.reporting import ascii_table
from repro.scenarios import ScenarioFuzzer, run_with_invariants

from benchmarks.reporting import record_table

SMOKE = bool(os.environ.get("SCENARIO_BENCH_SMOKE"))
N_COMPILE = 40 if SMOKE else 200
N_RUN = 6 if SMOKE else 40
#: Sustained end-to-end floor (sample + compile + simulate + check).
RUNS_PER_S_FLOOR = 1.0 if SMOKE else 2.0


def test_scenario_fuzz_throughput(benchmark):
    fuzzer = ScenarioFuzzer()

    def run():
        compile_started = time.perf_counter()
        for seed in range(N_COMPILE):
            fuzzer.scenario(seed)
        compile_elapsed = time.perf_counter() - compile_started

        run_started = time.perf_counter()
        reports = [
            run_with_invariants(fuzzer.scenario(seed), check_interval_s=120.0)
            for seed in range(N_RUN)
        ]
        run_elapsed = time.perf_counter() - run_started
        return compile_elapsed, run_elapsed, reports

    compile_elapsed, run_elapsed, reports = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    checks = sum(r.checks for r in reports)
    violations = [v for r in reports for v in r.violations]
    compile_rate = N_COMPILE / compile_elapsed
    run_rate = N_RUN / run_elapsed
    record_table(
        "Scenario fuzz throughput (sample + compile + invariant run)",
        ascii_table(
            ["stage", "n", "rate"],
            [
                ("compile only", N_COMPILE, f"{compile_rate:,.0f}/s"),
                ("end-to-end run", N_RUN, f"{run_rate:,.1f}/s"),
                ("invariant checks", checks, "-"),
            ],
        ),
    )

    assert violations == [], violations
    assert checks > 0
    assert run_rate >= RUNS_PER_S_FLOOR
