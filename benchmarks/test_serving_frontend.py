"""Closed-workload benchmark for the micro-batching serving front-end.

Documents the headline claim of the :mod:`repro.serving.frontend`
request-queue path: replaying a scenario-derived trace of single-record
prediction requests through the micro-batched, signature-cached
front-end beats the naive per-request ``predict_batch`` loop by ≥5× at
128 servers, while the virtual-latency scorecard (p50/p99, queue waits,
cache hit rate) stays inside the configured ``max_wait_s`` budget. The
run writes both a human-readable table and the machine-readable
``BENCH_serving_frontend.json`` (under ``.benchmarks/``, or the committed
``benchmark_results/`` with ``--regenerate-results``) consumed by CI
trend tracking.

``SERVING_BENCH_SMOKE=1`` shrinks the workload for tier-1 runners
(32 servers, fewer requests, relaxed floor); the nightly
``serving-frontend-nightly`` job runs the full 128-server trace.
"""

import os
import time

import numpy as np

from benchmarks.conftest import record_json, record_table
from repro.core.stable import StableTemperaturePredictor
from repro.experiments.scenarios import class_balanced_fleet_scenario
from repro.serving.frontend import (
    FrontendConfig,
    PredictionFrontend,
    serve_naive,
    serve_trace,
)
from repro.serving.registry import ModelRegistry
from repro.serving.traces import trace_from_scenario
from repro.training import server_class_key
from tests.conftest import make_record

SMOKE = bool(os.environ.get("SERVING_BENCH_SMOKE"))
N_CLASSES = 4
SERVERS_PER_CLASS = 8 if SMOKE else 32  # 32 servers smoke, 128 full
N_REQUESTS = 1_500 if SMOKE else 12_000
#: Virtual arrival rate; the window is sized so micro-batches actually fill.
RATE_PER_S = 800.0
REPEATS = 2 if SMOKE else 3
SPEEDUP_FLOOR = 3.0 if SMOKE else 5.0
CONFIG = FrontendConfig(max_batch=64, max_wait_s=0.05)


def _class_model(seed: float) -> StableTemperaturePredictor:
    records = [
        make_record(
            psi=35.0 + seed + 1.5 * i, n_vms=2 + i % 7, util=0.15 + 0.04 * i
        )
        for i in range(18)
    ]
    return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(records)


def _build_workload():
    scenario = class_balanced_fleet_scenario(
        n_classes=N_CLASSES,
        servers_per_class=SERVERS_PER_CLASS,
        seed=93_000,
        duration_s=3600.0,
    )
    registry = ModelRegistry()
    registry.register("default", _class_model(0.0))
    for index, key in enumerate(
        sorted({server_class_key(spec) for spec in scenario.server_specs})
    ):
        registry.register(key, _class_model(4.0 + 3.0 * index))
    trace = trace_from_scenario(
        scenario,
        N_REQUESTS,
        duration_s=N_REQUESTS / RATE_PER_S,
        arrival="poisson",
        seed=17,
        # Classic 80/20 production skew: 1/8 of the servers draw 80% of
        # the queries — the shape that makes a result cache earn its keep.
        # Monitoring re-queries dominate; placement what-ifs are a side
        # stream (the what-if scorer batches its own traffic anyway).
        hot_fraction=0.125,
        hot_weight=0.8,
        whatif_fraction=0.1,
        key_fn=server_class_key,
    )
    return scenario, registry, trace


def test_serving_frontend_throughput():
    """Acceptance: ≥5× wall-clock speedup over per-request serving at
    128 servers (≥3× at smoke scale), bit-identical answers, and every
    queue wait inside the latency budget."""
    scenario, registry, trace = _build_workload()

    naive_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        psi_naive, naive_ledger = serve_naive(registry, trace)
        naive_s = min(naive_s, time.perf_counter() - start)

    frontend_s = float("inf")
    for _ in range(REPEATS):
        frontend = PredictionFrontend(registry, CONFIG)  # cold cache per repeat
        start = time.perf_counter()
        tickets = serve_trace(frontend, trace)
        frontend_s = min(frontend_s, time.perf_counter() - start)

    psi_frontend = np.array([t.psi_stable_c for t in tickets])
    assert np.array_equal(psi_frontend, psi_naive)

    summary = frontend.ledger.summary()
    waits = frontend.ledger.queue_waits_s()
    assert np.all(waits <= CONFIG.max_wait_s + 1e-12)
    speedup = naive_s / frontend_s

    lines = [
        f"{'servers':>8} {'requests':>9} {'naive s':>9} {'frontend s':>11} "
        f"{'speedup':>8}",
        f"{scenario.n_servers:>8} {trace.n_requests:>9} {naive_s:>9.3f} "
        f"{frontend_s:>11.3f} {speedup:>7.1f}x",
        (
            f"virtual: p50 {summary['p50_latency_s'] * 1e3:.1f} ms, "
            f"p99 {summary['p99_latency_s'] * 1e3:.1f} ms, "
            f"mean batch {summary['mean_batch_size']:.1f}, "
            f"cache hit {summary['cache_hit_rate'] * 100:.1f}%"
        ),
        (
            f"floor: {SPEEDUP_FLOOR:.0f}x"
            + (" (smoke scale)" if SMOKE else " at 128 servers")
        ),
    ]
    record_table(
        "serving front-end (micro-batched vs per-request)", "\n".join(lines)
    )
    record_json(
        "BENCH_serving_frontend.json",
        {
            "benchmark": "serving-frontend",
            "smoke": SMOKE,
            "n_servers": scenario.n_servers,
            "n_requests": trace.n_requests,
            "arrival_rate_per_s": RATE_PER_S,
            "max_batch": CONFIG.max_batch,
            "max_wait_s": CONFIG.max_wait_s,
            "naive_walltime_s": round(naive_s, 4),
            "frontend_walltime_s": round(frontend_s, 4),
            "speedup": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
            "naive_p50_latency_s": round(
                naive_ledger.percentile_latency_s(50.0), 6
            ),
            "p50_latency_s": round(summary["p50_latency_s"], 6),
            "p99_latency_s": round(summary["p99_latency_s"], 6),
            "mean_queue_wait_s": round(summary["mean_queue_wait_s"], 6),
            "mean_batch_size": round(summary["mean_batch_size"], 2),
            "cache_hit_rate": round(summary["cache_hit_rate"], 4),
            "unique_computed": summary["unique_computed"],
            "n_batches": summary["n_batches"],
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"micro-batched serving speedup {speedup:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor (naive {naive_s:.3f}s vs frontend "
        f"{frontend_s:.3f}s)"
    )
