"""Benchmark result plumbing, run as a real pytest session.

Pytest loads ``benchmarks/conftest.py`` under the bare name
``conftest``; the benchmarks import their recording helpers by package
path. These tests run a one-line probe benchmark in a copy of the
``benchmarks/`` support files and check that the helpers and the hooks
share one state: tables reach the terminal summary, and
``--regenerate-results`` moves the written files into
``benchmark_results/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE = '''
from benchmarks.reporting import record_json, record_table


def test_probe():
    record_table("Probe: one table", "probe row")
    record_json("BENCH_probe.json", {"ok": True})
'''

WRITTEN = ("probe_one_table.txt", "BENCH_probe.json")


def run_probe(root: Path, *options: str) -> subprocess.CompletedProcess:
    """Run the probe benchmark under ``root`` with the repo's support files."""
    bench = root / "benchmarks"
    bench.mkdir()
    for source in (REPO_ROOT / "benchmarks").glob("*.py"):
        if not source.name.startswith("test_"):
            shutil.copy(source, bench / source.name)
    (bench / "test_probe.py").write_text(PROBE)
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_probe.py", *options],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )


def test_tables_reach_the_summary_and_the_ignored_directory(tmp_path):
    result = run_probe(tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "reproduction results (paper vs measured)" in result.stdout
    assert "== Probe: one table ==" in result.stdout
    for name in WRITTEN:
        assert (tmp_path / ".benchmarks" / name).is_file()
        assert not (tmp_path / "benchmark_results" / name).exists()


def test_regenerate_results_writes_the_committed_directory(tmp_path):
    result = run_probe(tmp_path, "--regenerate-results")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "== Probe: one table ==" in result.stdout
    for name in WRITTEN:
        assert (tmp_path / "benchmark_results" / name).is_file()
        assert not (tmp_path / ".benchmarks" / name).exists()
