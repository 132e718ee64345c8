"""Fleet prediction service benchmarks.

Documents the serving-layer headline claim: at 128 servers the
:class:`~repro.serving.fleet.PredictionFleet` runs the paper's online
loop (Δ_update calibration + Δ_gap-ahead forecasting, with batched
ψ_stable seeding and mid-run retargeting) ≥5× faster than the per-VM
prediction loop — with bit-identical forecasts. Also records the
cross-model batched SVR throughput vs point calls.
"""

import statistics
import time

import numpy as np

from benchmarks.conftest import record_table
from repro.config import PredictionConfig
from repro.core.curve import PredefinedCurve
from repro.core.dynamic import DynamicTemperaturePredictor
from repro.core.stable import StableTemperaturePredictor
from repro.serving import ModelRegistry, PredictionFleet, predict_batch
from repro.serving.batch import PredictionRequest
from tests.conftest import make_record

N_SERVERS = 128
N_STEPS = 240  # 20 simulated minutes of 5 s sensor samples
RETARGET_STEP = 100

CONFIG = PredictionConfig()
#: Each arm's time is the median of this many alternating repeats, so
#: one stall on a shared host cannot decide the speedup floor.
REPEATS = 5


def _stable_model() -> StableTemperaturePredictor:
    """A compact trained stable model (synthetic records, no simulation)."""
    records = [
        make_record(
            psi=38.0 + 0.35 * i + 2.0 * (i % 7),
            n_vms=2 + i % 10,
            util=0.2 + 0.006 * i,
            env=18.0 + i % 9,
            fan_count=2 + 2 * (i % 4),
        )
        for i in range(90)
    ]
    return StableTemperaturePredictor(c=64.0, gamma=0.125, epsilon=0.125).fit(records)


def _workload(seed: int = 9):
    """Server records plus deterministic synthetic sensor traces."""
    rng = np.random.default_rng(seed)
    records = [
        make_record(psi=None, n_vms=2 + i % 8, util=0.25 + 0.004 * i, env=20.0 + i % 5)
        for i in range(N_SERVERS)
    ]
    retarget_records = [
        make_record(psi=None, n_vms=4 + i % 6, util=0.5 + 0.003 * i)
        for i in range(N_SERVERS // 2)
    ]
    t0 = rng.uniform(0.0, 4.0, N_SERVERS)
    first = rng.uniform(34.0, 44.0, N_SERVERS)
    times = t0[None, :] + 5.0 * np.arange(1, N_STEPS + 1)[:, None]
    times = times + rng.uniform(-0.3, 0.3, times.shape)  # jittered sensors
    traces = (
        first[None, :]
        + 18.0 * (1.0 - np.exp(-np.arange(1, N_STEPS + 1)[:, None] * 5.0 / 400.0))
        + rng.normal(0.0, 0.3, times.shape)
    )
    return records, retarget_records, t0, first, times, traces


def _run_scalar_loop(predictor, records, retarget_records, t0, first, times, traces):
    """The per-VM baseline: one point ψ_stable call and one
    DynamicTemperaturePredictor per server, stepped in Python."""
    dynamics = []
    for i in range(N_SERVERS):
        curve = PredefinedCurve(
            phi_0=float(first[i]),
            psi_stable=predictor.predict(records[i]),
            t_break_s=CONFIG.t_break_s,
            delta=CONFIG.curve_delta,
            origin_s=float(t0[i]),
        )
        dynamics.append(DynamicTemperaturePredictor(curve, config=CONFIG))
    out = np.empty((N_STEPS, N_SERVERS))
    for k in range(N_STEPS):
        if k == RETARGET_STEP:
            for i, record in enumerate(retarget_records):
                dynamics[i].retarget(
                    float(times[k, i]), float(traces[k, i]), predictor.predict(record)
                )
        for i, dyn in enumerate(dynamics):
            t = float(times[k, i])
            dyn.observe(t, float(traces[k, i]))
            out[k, i] = dyn.predict_ahead(t).predicted_c
    return out


def _run_fleet(registry, records, retarget_records, t0, first, times, traces):
    """The serving path: one PredictionFleet, batched end to end."""
    fleet = PredictionFleet(registry, CONFIG)
    names = [f"s{i}" for i in range(N_SERVERS)]
    fleet.track(names, records, t0, first)
    out = np.empty((N_STEPS, N_SERVERS))
    for k in range(N_STEPS):
        if k == RETARGET_STEP:
            half = names[: N_SERVERS // 2]
            fleet.retarget(
                half,
                retarget_records,
                times[k, : N_SERVERS // 2],
                traces[k, : N_SERVERS // 2],
            )
        fleet.observe(times[k], traces[k])
        _, out[k] = fleet.predict_ahead(times[k])
    return out


def test_prediction_fleet_speedup_128_servers():
    """Acceptance: ≥5× serving throughput at 128 servers, bit-identical
    forecasts vs the per-VM prediction loop."""
    predictor = _stable_model()
    registry = ModelRegistry()
    registry.register("default", predictor)
    workload = _workload()

    scalar_times, fleet_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        scalar_out = _run_scalar_loop(predictor, *workload)
        scalar_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fleet_out = _run_fleet(registry, *workload)
        fleet_times.append(time.perf_counter() - start)
    scalar_elapsed = statistics.median(scalar_times)
    fleet_elapsed = statistics.median(fleet_times)

    speedup = scalar_elapsed / fleet_elapsed
    forecasts = N_SERVERS * N_STEPS
    identical = np.array_equal(scalar_out, fleet_out)
    rows = [
        f"{'path':<26}{'walltime':>12}{'forecasts/s':>16}",
        f"{'per-VM loop':<26}{scalar_elapsed * 1e3:>10.1f}ms"
        f"{forecasts / scalar_elapsed:>16,.0f}",
        f"{'prediction fleet':<26}{fleet_elapsed * 1e3:>10.1f}ms"
        f"{forecasts / fleet_elapsed:>16,.0f}",
        "",
        f"speedup: {speedup:.1f}x (acceptance: >= 5x, medians of {REPEATS} repeats)",
        f"bit-identical forecasts: {identical}",
    ]
    record_table(
        f"prediction fleet: serving throughput ({N_SERVERS} servers)",
        "\n".join(rows),
    )
    assert identical, "fleet forecasts diverge from the per-VM loop"
    assert speedup >= 5.0, f"prediction fleet speedup {speedup:.1f}x below 5x"


def test_batched_stable_inference_throughput():
    """Cross-model batched ψ_stable queries vs point calls (retarget wave)."""
    predictor = _stable_model()
    registry = ModelRegistry()
    registry.register("default", predictor)
    records = [
        make_record(psi=None, n_vms=2 + i % 9, util=0.3 + 0.002 * i)
        for i in range(N_SERVERS)
    ]
    requests = [PredictionRequest("default", r) for r in records]

    start = time.perf_counter()
    for _ in range(5):
        looped = np.array([predictor.predict(r) for r in records])
    point_elapsed = (time.perf_counter() - start) / 5
    start = time.perf_counter()
    for _ in range(5):
        batched = predict_batch(registry, requests)
    batch_elapsed = (time.perf_counter() - start) / 5

    rows = [
        f"{'path':<26}{'walltime':>12}",
        f"{'point calls':<26}{point_elapsed * 1e3:>10.2f}ms",
        f"{'predict_batch':<26}{batch_elapsed * 1e3:>10.2f}ms",
        "",
        f"speedup: {point_elapsed / batch_elapsed:.1f}x",
        f"bit-identical: {np.array_equal(looped, batched)}",
    ]
    record_table(
        f"prediction fleet: batched stable inference ({N_SERVERS} records)",
        "\n".join(rows),
    )
    assert np.array_equal(looped, batched)
    assert batch_elapsed < point_elapsed
