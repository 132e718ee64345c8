"""Measure the benchmark's run-to-run spread against its bounds.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b]

Runs ``run.py`` once per seed and workload, interleaving the workloads
(the host's speed drifts over minutes), then prints for each end-to-end
metric the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
``BENCHMARK.json``. A spread above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    values: dict[tuple[str, str], list[float]] = {}
    for seed in args.seeds:
        for name in names:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            for metric, value in result["metrics"].items():
                values.setdefault((name, metric), []).append(value["value"])
    print(f"\n{'workload':<16}{'metric':<14}{'median':>10}{'spread':>9}{'bound':>7}")
    for name in names:
        for metric in bench["end_to_end"]:
            series = values[(name, metric["name"])]
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
            mark = "" if spread < metric["bound"] / 3 else "  <- over a third of the bound"
            print(f"{name:<16}{metric['name']:<14}{mid:>10.4g}{spread:>9.1%}"
                  f"{metric['bound']:>7.2f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
