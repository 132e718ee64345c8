"""Tests of the benchmark's own code: spans, patching, metric names, workloads."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import layers
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer = tracer.open("outer")          # t=0
    clock.now = 1.0
    mid = tracer.open("mid")              # t=1
    clock.now = 2.0
    leaf = tracer.open("leaf")            # t=2
    clock.now = 5.0
    tracer.close(leaf)                    # leaf: 3 s
    clock.now = 6.0
    tracer.close(mid)                     # mid: 5 s, self 2 s
    clock.now = 7.0
    again = tracer.open("leaf")           # t=7, a direct child of outer
    clock.now = 8.0
    tracer.close(again, work=4)
    clock.now = 10.0
    tracer.close(outer)                   # outer: 10 s, self 10 - 5 - 1 = 4 s

    totals = tracer.totals()
    assert totals["outer"].self_s == pytest.approx(4.0)
    assert totals["mid"].self_s == pytest.approx(2.0)
    assert totals["leaf"].self_s == pytest.approx(4.0)
    assert totals["leaf"].busy_s == pytest.approx(4.0)
    assert totals["leaf"].calls == 2
    assert totals["leaf"].work == 4.0
    # Self times of every span add up to the outermost span's duration.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)
    assert tracer.work_under("leaf", "outer") == 4.0
    assert tracer.work_under("leaf", "mid") == 0.0


def test_reentrant_span_counts_once_in_calls_and_busy_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def countdown(n):
        clock.now += 1.0
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap("f", countdown)
    wrapped(2)
    totals = tracer.totals()["f"]
    assert (totals.calls, totals.busy_s, totals.self_s) == (1, 3.0, 3.0)


def test_closing_out_of_order_is_an_error():
    tracer = spans.Tracer(FakeClock())
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_normalized_time_scales_each_stretch_by_the_sample_that_ends_it():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_SNIPPET_S
    # Samples as (start, snippet time, end); marks end at 1.0 and 7.0.
    for start, taken, end in [(0.9, ref, 1.0), (3.0, ref / 2, 3.5), (6.5, 2 * ref, 7.0),
                              (8.0, ref, 8.5)]:
        host.starts.append(start)
        host.snippets.append(taken)
        host.ends.append(end)
    # 2 s at twice the reference speed, then 3 s at half of it.
    assert host.normalized(1.0, 7.0) == pytest.approx(2.0 * 2 + 3.0 / 2)
    assert host.wall(1.0, 7.0) == pytest.approx(5.0)
    assert host.speed(1.0, 7.0) in (2.0, 0.5)


def test_program_clock_stands_still_while_a_sample_is_taken():
    clock = FakeClock()
    host = hostspeed.HostSpeed(clock=clock)
    host.snippet = lambda: clock.__setattr__("now", clock.now + 0.25) or 0.25
    clock.now = 1.0
    before = host.program_clock()
    host.mark()
    assert clock.now == 1.25
    assert host.program_clock() == before
    assert host.wall(0.0, 1.25) == pytest.approx(1.0)


def test_timer_samples_while_the_program_runs_and_stops():
    host = hostspeed.HostSpeed(period_s=0.005)
    begin = host.start(warm_up=1)
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pass
    end = host.mark()
    host.stop()
    taken = len(host.snippets)
    assert taken >= 5
    time.sleep(0.02)
    assert len(host.snippets) == taken
    assert host.ends == sorted(host.ends)
    assert 0.0 < host.wall(begin, end) < end - begin
    assert host.normalized(begin, end) > 0.0


def _targets() -> list[tuple[object, str]]:
    bindings = [target for layer in layers.SPANS + layers.SETUP_SPANS for target in layer.targets]
    bindings += [(module, "solve_svr_dual_batch") for _, module in layers.SMO_CALLERS]
    bindings.append(("repro.datacenter.simulation", "DatacenterSimulation.add_probe"))
    return [spans.resolve(module, qualname) for module, qualname in bindings]


def test_install_wraps_and_restore_puts_back_every_binding():
    targets = _targets()
    before = [(owner, attr, vars(owner).get(attr), attr in vars(owner)) for owner, attr in targets]
    patches = layers.install(spans.Tracer())
    try:
        assert len(patches) == len(targets)
        for owner, attr, original, _ in before:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
    finally:
        patches.restore()
    for owner, attr, original, own in before:
        assert (attr in vars(owner)) == own
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"
    # Names bound by import really are separate bindings of one function.
    import repro.serving.batch
    import repro.serving.fleet

    assert repro.serving.fleet.predict_batch is repro.serving.batch.predict_batch


def test_restore_removes_a_patched_inherited_method():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    patches = spans.Patches()
    patches.replace(Child, "f", lambda fn: lambda self: "patched")
    assert Child().f() == "patched"
    patches.restore()
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def test_metric_names_and_units_match_benchmark_json():
    per_layer = layers.per_layer_catalog()
    names = [name for name, _ in run.END_TO_END] + [name for name, _, _ in per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == per_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_every_traced_layer_says_what_it_should_move():
    table = layers.moves_table()
    assert all(moves for _, moves in table)
    assert {name for name, _ in table} >= set(layers.RUN_LAYERS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks_traced_and_untraced(name):
    workload = workloads.WORKLOADS[name]
    size = workload.sizes["tiny"]
    plain = workload.check(*_run(workload, size))

    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        state = workload.setup(1, size)
        first = len(tracer)
        ready = time.perf_counter()
        result = workload.run(state)
        run_s = time.perf_counter() - ready
        last = len(tracer)
    finally:
        patches.restore()
    traced = workload.check(state, result)

    for outcome in (plain, traced):
        assert outcome.failed == 0, outcome.problems
        assert outcome.attempted >= 1
    assert traced.digest == plain.digest, "tracing changed the program's outputs"
    expected = (
        {"outcome.p50_latency_ms", "outcome.p99_latency_ms"}
        if name == "serve_frontend"
        else {"outcome.forecast_mae_c", "outcome.hotspot_server_intervals"}
    )
    assert set(plain.metrics) == expected

    totals = tracer.totals(first, last)
    known = {**traced.metrics, **traced.counts}
    metrics = layers.layer_metrics(tracer, totals, first, last, run_s, known)
    catalog = [metric for metric, _, _ in layers.per_layer_catalog()]
    assert sorted(metrics) == sorted(set(catalog) - {"trace.overhead_s"})
    own = sum(t.self_s for t in totals.values())
    assert own + metrics["trace.other_s"] == pytest.approx(run_s)


def _run(workload, size):
    state = workload.setup(1, size)
    return state, workload.run(state)


def _rep(instance: int, traced: bool, run_s: float, digest: str = "d") -> dict:
    """A repetition's result as ``rep.py`` prints it, with made-up numbers."""
    layer = {name: run_s for name, _, _ in layers.per_layer_catalog() if name != "trace.overhead_s"}
    return {
        "metrics": {"setup_s": 1.0 + instance, "run_s": run_s, "peak_rss_mb": 100.0},
        "wall": {"setup_s": 2.0, "run_s": 2 * run_s},
        "speed": 0.5,
        "outcomes": {"outcome.forecast_mae_c": 0.5},
        "attempted": 10,
        "failed": 0,
        "digest": digest,
        "problems": [],
        "instance": instance,
        "traced": traced,
        **({"layers": layer, "table": "table"} if traced else {}),
    }


def test_result_line_takes_the_median_over_instances_of_per_instance_medians():
    runs = run.Runs("manage_cooling", 1, trace=False)
    # Two rounds of three instances: per-instance medians 2.0, 5.0, 3.0.
    runs.results = [_rep(0, False, 1.0), _rep(1, False, 5.0), _rep(2, False, 3.0),
                    _rep(0, False, 3.0), _rep(1, False, 5.0), _rep(2, False, 3.0)]
    text, result = run.result_line([runs], trace=False)
    assert text.startswith("manage_cooling seed 1: 3 instances, 6 repetitions")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and (result["attempted"], result["failed"]) == (60, 0)
    assert result["metrics"]["run_s"] == {"value": 3.0, "unit": "s"}
    assert result["metrics"]["setup_s"] == {"value": 2.0, "unit": "s"}
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    json.dumps(result)

    runs.results[3]["digest"] = "other"
    text, result = run.result_line([runs], trace=False)
    assert result["correct"] is False
    assert "instance 0 gave different outputs" in text


def test_traced_result_line_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    runs = [run.Runs(name, 1, trace=True) for name in run.WORKLOADS]
    for r in runs:
        r.results = [_rep(0, False, 2.0), _rep(0, True, 2.5),
                     _rep(0, False, 2.0), _rep(0, True, 3.5)]
        for x in r.results[1::2]:
            x["spans"] = str(tmp_path / f"{r.workload}-{x['metrics']['run_s']}.gz")
            Path(x["spans"]).write_text("")
    _, result = run.result_line(runs, trace=True)
    assert result["correct"] is True
    expected = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(
        f"{workload}.{metric}" for workload in run.WORKLOADS for metric in expected
    )
    assert result["metrics"]["manage_cooling.trace.overhead_s"]["value"] == 1.0
    assert result["metrics"]["manage_cooling.control.plan.busy_s"]["value"] == 3.0
    assert (tmp_path / "manage_cooling.spans.jsonl.gz").is_file()
    assert (tmp_path / "manage_cooling.layers.txt").read_text() == "table\n"


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in Path(run.__file__).parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "manage_cooling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
