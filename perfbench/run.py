"""The repository benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``manage_cooling``, ``drift_lifecycle``, ``serve_frontend``,
or ``all`` (every workload, one round of each in turn). Run it from the
root of a checkout; it needs ``src/repro`` there and exits with code 2
without a result when it is missing.

Each repetition runs in a fresh interpreter (``rep.py``) with OpenBLAS
and OpenMP pinned to one thread, and times set-up (after the imports)
and the closed loop separately, normalized to the reference host speed
(``hostspeed.py``). The amount of work in one instance of a workload
depends on its inputs — how many servers run hot, how the retrains
group into rounds — so one round runs a fixed set of instances, seeded
``100 * N + i``, and the metrics are the median over the instances of
each instance's median over the rounds. The first round always runs;
another starts only if it fits in ``--seconds``. Repeated instances
must reproduce their outputs exactly. A repetition that crashes or
overruns the time limit ends the benchmark without a result.

With ``--trace 0`` the metrics are the end-to-end metrics. With
``--trace 1`` every round runs instance 0 untraced and then traced; the
per-layer metrics are the medians over its traced repetitions, and
``trace.overhead_s`` is the median over the pairs of traced minus
untraced run time. Traced outputs must equal untraced ones. The
per-layer table and the spans of the traced repetition with the median
run time are written under ``.perfbench/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Instances per round. A round takes 20 to 35 s on a busy 2-core host.
INSTANCES = {"manage_cooling": 6, "drift_lifecycle": 4, "serve_frontend": 3}
WORKLOADS = tuple(INSTANCES)

#: End-to-end metrics and their units.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
#: A run must end within 180 s: no repetition may run past this.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Failure(Exception):
    """A repetition crashed or timed out: the benchmark prints no result."""


def median(values: list[float]) -> float:
    return float(statistics.median(values))


class Runs:
    """Rounds of repetitions of one workload at one benchmark seed."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.results: list[dict] = []

    def plan(self) -> list[tuple[int, bool]]:
        """(instance, traced) of each repetition in one round."""
        if self.trace:
            return [(0, False), (0, True)]
        return [(instance, False) for instance in range(INSTANCES[self.workload])]

    def run_round(self, deadline: float) -> None:
        for instance, traced in self.plan():
            self.run_one(instance, traced, deadline)

    def run_one(self, instance: int, traced: bool, deadline: float) -> None:
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(100 * self.seed + instance)]
        if traced:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{self.workload}-rep{len(self.results)}.spans.jsonl.gz"
            cmd += ["--trace", "--spans", str(spans)]
        timeout = deadline - time.perf_counter()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise Failure(f"{self.workload}: repetition ran past the time limit") from exc
        if proc.returncode != 0:
            raise Failure(f"{self.workload}: repetition exited {proc.returncode}\n"
                          f"{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(instance=instance, traced=traced)
        if traced:
            result["spans"] = str(spans)
        self.results.append(result)


def run_all(runs: list[Runs], seconds: float) -> int:
    """Run rounds of every workload in turn while the next one fits; the round count."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S * len(runs)
    budget = seconds * len(runs)
    rounds = 0
    while True:
        begin = time.perf_counter()
        for r in runs:
            r.run_round(deadline)
        rounds += 1
        now = time.perf_counter()
        if now - started + (now - begin) > min(budget, deadline - started):
            return rounds


def summarize(r: Runs) -> tuple[bool, int, int, dict[str, float], str]:
    """(correct, attempted, failed, metrics, report text) of one workload."""
    results = r.results
    attempted = sum(x["attempted"] for x in results)
    failed = sum(x["failed"] for x in results)
    correct = failed == 0
    lines = [f"  problem: {p}" for x in results for p in x["problems"]]
    by_instance: dict[int, list[dict]] = {}
    for x in results:
        by_instance.setdefault(x["instance"], []).append(x)
    for instance, reps in sorted(by_instance.items()):
        if len({x["digest"] for x in reps}) != 1:
            correct = False
            lines.append(f"  problem: instance {instance} gave different outputs on repetition"
                         f"{' (traced vs untraced)' if r.trace else ''}")
    if r.trace:
        traced = [x for x in results if x["traced"]]
        metrics = {name: median([x["layers"][name] for x in traced]) for name in traced[0]["layers"]}
        pairs = list(zip(results[0::2], results[1::2]))
        metrics["trace.overhead_s"] = median(
            [t["metrics"]["run_s"] - u["metrics"]["run_s"] for u, t in pairs]
        )
        shown = sorted(traced, key=lambda x: x["metrics"]["run_s"])[(len(traced) - 1) // 2]
        (OUT / f"{r.workload}.layers.txt").write_text(shown["table"] + "\n")
        for x in traced:
            path = Path(x["spans"])
            if x is shown:
                path.replace(OUT / f"{r.workload}.spans.jsonl.gz")
            else:
                path.unlink(missing_ok=True)
        lines.append(f"  traced repetition with the median run time (wall seconds):")
        lines.append(shown["table"])
        lines.append(f"  trace.overhead_s {metrics['trace.overhead_s']:.4f} s over "
                     f"{len(pairs)} pairs; spans in .perfbench/{r.workload}.spans.jsonl.gz")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            per_instance = [median([x["metrics"][name] for x in reps])
                            for _, reps in sorted(by_instance.items())]
            metrics[name] = median(per_instance)
            values = ", ".join(f"{v:.4g}" for v in per_instance)
            lines.append(f"  {name:<12}{metrics[name]:>12.6g} {unit:<3} (median of {values})")
        for name in ("setup_s", "run_s"):
            values = ", ".join(f"{x['wall'][name]:.3g}" for x in results)
            lines.append(f"  wall {name:<7} {values}")
        speeds = ", ".join(f"{x['speed']:.2f}" for x in results)
        lines.append(f"  host speed   {speeds}")
        for name in sorted(results[0]["outcomes"]):
            values = ", ".join(f"{reps[0]['outcomes'][name]:.5g}"
                               for _, reps in sorted(by_instance.items()))
            lines.append(f"  {name:<34}{values}")
    header = (f"{r.workload} seed {r.seed}: {len(by_instance)} instances, {len(results)} "
              f"repetitions{' (untraced, traced)' if r.trace else ''}, "
              f"{attempted - failed}/{attempted} operations ok"
              f"{'' if correct else ', NOT CORRECT'}")
    return correct, attempted, failed, metrics, "\n".join([header] + lines)


def result_line(runs: list[Runs], trace: bool) -> tuple[str, dict]:
    """The report text and the result object of finished runs."""
    units = dict(END_TO_END)
    if trace:
        units = {name: unit for name, unit, _ in layers.per_layer_catalog()}
    correct, attempted, failed, metrics, texts = True, 0, 0, {}, []
    for r in runs:
        ok, tried, bad, values, text = summarize(r)
        texts.append(text)
        correct &= ok
        attempted += tried
        failed += bad
        prefix = "" if len(runs) == 1 else f"{r.workload}."
        metrics.update(
            {prefix + name: {"value": value, "unit": units[name]} for name, value in values.items()}
        )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return "\n".join(texts), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [Runs(name, args.seed, bool(args.trace)) for name in names]
    try:
        rounds = run_all(runs, args.seconds)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    text, result = result_line(runs, bool(args.trace))
    print(f"{rounds} round(s)\n{text}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
