"""Model-lifecycle benchmarks: retrain throughput, swap latency, drift payoff.

Documents the lifecycle-layer headline claims:

* a lifecycle retraining round (every stale class refit in **one**
  lockstep :func:`~repro.svm.smo.solve_svr_dual_batch` call, then
  atomically swapped) runs ≥4× faster than sequential per-class cold
  ``EpsilonSVR.fit`` trains at the same hyper-parameters — and publishes
  bit-identical models;
* an atomic registry swap is cheap enough to run inside a control
  interval (bounded sub-10 ms latency);
* on the 128-server ``model-drift`` scenario (seasonal ambient ramp +
  VM-flavor shift) the drift-aware lifecycle ends the run with strictly
  lower windowed forecast MAE than the frozen-model baseline, at
  identical physics (no mitigation policy in either arm).

``LIFECYCLE_BENCH_SMOKE=1`` shrinks all three arms for CI (smaller
fleet, shorter drift run, relaxed 2× retrain floor — tiny problems
leave the solver mostly in Python overhead, understating the batching
win).
"""

import copy
import os
import statistics
import time

import numpy as np

from benchmarks.reporting import record_table
from repro.control import run_closed_loop
from repro.experiments.scenarios import (
    class_balanced_fleet_scenario,
    model_drift_scenario,
)
from repro.lifecycle import ModelLifecycle, Retrainer
from repro.lifecycle.planner import ClassRecordSet, RetrainPlan
from repro.svm.svr import EpsilonSVR
from repro.training import (
    FleetTrainingConfig,
    profile_fleet,
    server_class_key,
    train_fleet_registry,
)
from tests.training.test_fleet_trainer import synthetic_profile

SMOKE = bool(os.environ.get("LIFECYCLE_BENCH_SMOKE"))
#: Retrain-round arm: stale classes × fresh records per class.
N_CLASSES = 8 if SMOKE else 16
RECORDS_PER_CLASS = 30 if SMOKE else 60
RETRAIN_SPEEDUP_FLOOR = 2.0 if SMOKE else 4.0
#: The retrain-round arm times each path as the median of this many
#: alternating (sequential, batched) pairs, so one stall on a shared
#: host cannot decide the floor.
RETRAIN_PAIRS = 3
#: Swap-latency arm.
N_SWAPS = 50 if SMOKE else 200
SWAP_MEAN_BOUND_MS = 10.0
#: Drift-scorecard arm: classes × servers per class, drift-run seconds.
DRIFT_CLASSES = 3 if SMOKE else 4
DRIFT_PER_CLASS = 8 if SMOKE else 32
DRIFT_DURATION_S = 5400.0 if SMOKE else 7200.0
MAE_WINDOW = 20


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _registry_and_plan():
    """A trained per-class registry plus a fresh-records retrain plan.

    The registry is trained on one synthetic campaign; the plan carries
    a *drifted* record set per class (different seed) — the shape of a
    real lifecycle round, without paying two co-simulations here.
    """
    campaign = synthetic_profile(
        records_per_class=RECORDS_PER_CLASS, n_classes=N_CLASSES, seed=7
    )
    config = FleetTrainingConfig(
        n_splits=5,
        c_grid=(8.0, 64.0),
        gamma_grid=(0.03125, 0.125),
        epsilon_grid=(0.125,),
        min_class_records=4,
    )
    report = train_fleet_registry(campaign, config)
    drifted = synthetic_profile(
        records_per_class=RECORDS_PER_CLASS, n_classes=N_CLASSES, seed=1234
    )
    groups = drifted.classes()
    plan = RetrainPlan(
        time_s=3600.0,
        window_s=1800.0,
        classes=tuple(
            ClassRecordSet(
                key=key,
                server_names=tuple(drifted.names[i] for i in indices),
                records=tuple(
                    # +4 °C on every label: the ambient-drift analogue,
                    # so the publish gate sees a real improvement.
                    drifted.records[i].with_output(
                        drifted.records[i].psi_stable_c + 4.0
                    )
                    for i in indices
                ),
            )
            for key, indices in groups.items()
        ),
        skipped=(),
    )
    return report.registry, plan


def test_retrain_round_speedup_vs_sequential_cold_trains():
    """Acceptance: one lockstep retrain round ≥4× vs per-class cold fits.

    Both arms do identical work — per class, the publish gate's k-fold
    validation fits plus the full refit at the deployed
    hyper-parameters. The sequential arm pays one cold
    ``EpsilonSVR.fit`` per problem; the lifecycle round stacks every
    fold of every class into one lockstep batch.
    """
    registry, plan = _registry_and_plan()
    n_splits = Retrainer(registry).config.validation_splits

    def sequential():
        """Per-class cold validation + refit trains — the baseline a
        registry without the batched retrainer pays."""
        from repro.svm.cv import KFold

        models = {}
        for record_set in plan.classes:
            entry = registry.resolve(record_set.key)
            records = list(record_set.records)
            x = entry.scaler.transform(entry.extractor.matrix(records))
            y = entry.extractor.targets(records)

            def cold(x_rows, y_rows):
                return EpsilonSVR(
                    kernel=entry.model.kernel,
                    c=entry.model.c,
                    epsilon=entry.model.epsilon,
                    max_iter=50_000,
                ).fit(x_rows, y_rows)

            squared_sum = 0.0
            for train_idx, val_idx in KFold(n_splits, rng=None).split(
                y.shape[0]
            ):
                fold = cold(x[train_idx], y[train_idx])
                residual = np.atleast_1d(fold.predict(x[val_idx])) - y[val_idx]
                squared_sum += float(residual @ residual)
            deployed = np.atleast_1d(entry.model.predict(x))
            improved = squared_sum / y.shape[0] <= float(
                np.mean((deployed - y) ** 2)
            )
            if improved:
                models[record_set.key] = cold(x, y)
        return models

    def batched():
        live = copy.deepcopy(registry)
        return live, Retrainer(live).retrain(plan)

    seq_times, batch_times = [], []
    for _ in range(RETRAIN_PAIRS):
        seq_models, elapsed = _timed(sequential)
        seq_times.append(elapsed)
        (live_registry, round_), elapsed = _timed(batched)
        batch_times.append(elapsed)
    seq_elapsed = statistics.median(seq_times)
    batch_elapsed = statistics.median(batch_times)
    speedup = seq_elapsed / batch_elapsed

    # Parity: the lockstep refits publish bit-identical models.
    identical = True
    for record_set in plan.classes:
        entry = live_registry.resolve(record_set.key)
        records = list(record_set.records)
        x = entry.scaler.transform(entry.extractor.matrix(records))
        identical &= bool(
            np.array_equal(
                np.atleast_1d(entry.model.predict(x)),
                np.atleast_1d(seq_models[record_set.key].predict(x)),
            )
        )

    rows = [
        f"{N_CLASSES} stale classes x {RECORDS_PER_CLASS} fresh records, "
        "deployed (C, gamma, epsilon)",
        "",
        f"{'path':<44}{'walltime':>12}",
        f"{'sequential per-class cold trains':<44}{seq_elapsed * 1e3:>10.1f}ms",
        f"{'lifecycle round (lockstep batch + swaps)':<44}"
        f"{batch_elapsed * 1e3:>10.1f}ms",
        "",
        f"classes retrained: {round_.n_retrained}/{N_CLASSES}",
        f"bit-identical models: {identical}",
        f"speedup: {speedup:.1f}x (acceptance: >= "
        f"{RETRAIN_SPEEDUP_FLOOR:.0f}x{', smoke scale' if SMOKE else ''}, "
        f"medians of {RETRAIN_PAIRS} alternating pairs)",
    ]
    record_table("lifecycle: retrain round throughput", "\n".join(rows))
    assert round_.n_retrained == N_CLASSES
    assert identical, "lockstep retrain diverged from sequential fits"
    assert speedup >= RETRAIN_SPEEDUP_FLOOR, (
        f"retrain round speedup {speedup:.1f}x below "
        f"{RETRAIN_SPEEDUP_FLOOR:.0f}x"
    )


def test_swap_latency_bounded():
    """Acceptance: publishing a model version stays in control-interval
    noise (mean < 10 ms) — a swap is a snapshot plus one list append."""
    registry, plan = _registry_and_plan()
    record_set = plan.classes[0]
    entry = registry.resolve(record_set.key)
    records = list(record_set.records)
    x = entry.scaler.transform(entry.extractor.matrix(records))
    y = entry.extractor.targets(records)
    fresh = EpsilonSVR(
        kernel=entry.model.kernel,
        c=entry.model.c,
        epsilon=entry.model.epsilon,
        max_iter=50_000,
    ).fit(x, y)

    latencies = []
    for _ in range(N_SWAPS):
        start = time.perf_counter()
        registry.swap_model(record_set.key, fresh)
        latencies.append(time.perf_counter() - start)
        # Each iteration swaps a *new* snapshot source so the dedup
        # cache cannot short-circuit the copy after the first round.
        fresh = copy.deepcopy(fresh)
    latencies_ms = np.asarray(latencies) * 1e3
    mean_ms = float(latencies_ms.mean())
    p95_ms = float(np.percentile(latencies_ms, 95))
    worst_ms = float(latencies_ms.max())

    rows = [
        f"{N_SWAPS} swaps of a {fresh.n_support}-SV class model",
        "",
        f"mean   {mean_ms:8.3f} ms",
        f"p95    {p95_ms:8.3f} ms",
        f"max    {worst_ms:8.3f} ms",
        "",
        f"served version after run: v{registry.current_version(record_set.key)}",
        f"acceptance: mean < {SWAP_MEAN_BOUND_MS:.0f} ms",
    ]
    record_table("lifecycle: swap latency", "\n".join(rows))
    assert registry.current_version(record_set.key) == 1 + N_SWAPS
    assert mean_ms < SWAP_MEAN_BOUND_MS, (
        f"mean swap latency {mean_ms:.2f} ms over {SWAP_MEAN_BOUND_MS} ms"
    )


def test_model_drift_scorecard_lifecycle_vs_frozen():
    """Acceptance: on the model-drift fleet the lifecycle-managed run ends
    with strictly lower windowed forecast MAE and no more sustained
    hotspots than the frozen-model baseline."""
    seed = 92_000
    n_servers = DRIFT_CLASSES * DRIFT_PER_CLASS
    campaign = class_balanced_fleet_scenario(
        n_classes=DRIFT_CLASSES, servers_per_class=DRIFT_PER_CLASS,
        seed=seed, duration_s=3600.0,
    )
    config = FleetTrainingConfig(
        n_splits=5,
        c_grid=(8.0, 64.0),
        gamma_grid=(0.03125, 0.125),
        epsilon_grid=(0.125,),
        min_class_records=4,
    )
    train_started = time.perf_counter()
    report = train_fleet_registry(profile_fleet(campaign), config)
    train_elapsed = time.perf_counter() - train_started
    key_fn = lambda server: server_class_key(server.spec)  # noqa: E731

    scenario = model_drift_scenario(
        n_classes=DRIFT_CLASSES, servers_per_class=DRIFT_PER_CLASS,
        seed=seed, duration_s=DRIFT_DURATION_S,
    )
    frozen, frozen_elapsed = _timed(
        lambda: run_closed_loop(
            scenario, report.registry, policy=None, key_fn=key_fn
        )
    )
    live_registry = copy.deepcopy(report.registry)
    lifecycle = ModelLifecycle(live_registry)
    managed, managed_elapsed = _timed(
        lambda: run_closed_loop(
            scenario, live_registry, policy=None, key_fn=key_fn,
            lifecycle=lifecycle,
        )
    )

    frozen_mae = frozen.ledger.windowed_forecast_error_c(MAE_WINDOW)
    managed_mae = managed.ledger.windowed_forecast_error_c(MAE_WINDOW)
    frozen_sustained = len(frozen.ledger.sustained_hotspots())
    managed_sustained = len(managed.ledger.sustained_hotspots())
    life = lifecycle.summary()

    rows = [
        f"{n_servers} servers ({DRIFT_CLASSES} classes), "
        f"{DRIFT_DURATION_S:.0f}s drift run (ambient ramp + flavor shift), "
        f"training {train_elapsed:.1f}s",
        "",
        f"{'run':<12}{'MAE last ' + str(MAE_WINDOW):>16}{'MAE all':>10}"
        f"{'sustained':>11}{'walltime':>11}",
        f"{'frozen':<12}{frozen_mae:>15.3f} {frozen.ledger.mean_forecast_error_c():>9.3f} "
        f"{frozen_sustained:>10} {frozen_elapsed:>9.1f}s",
        f"{'lifecycle':<12}{managed_mae:>15.3f} "
        f"{managed.ledger.mean_forecast_error_c():>9.3f} "
        f"{managed_sustained:>10} {managed_elapsed:>9.1f}s",
        "",
        f"retrain rounds: {life['rounds']:.0f}, models published: "
        f"{life['models_published']:.0f} over "
        f"{life['classes_retrained']:.0f}/{DRIFT_CLASSES} classes "
        f"({life['retrain_seconds_total']:.2f}s retraining)",
        "acceptance: lifecycle MAE strictly below frozen, sustained "
        "hotspots no worse",
    ]
    record_table(
        "lifecycle: model-drift retrained vs frozen scorecard", "\n".join(rows)
    )
    assert np.isfinite(frozen_mae) and np.isfinite(managed_mae)
    assert life["models_published"] >= DRIFT_CLASSES
    assert managed_mae < frozen_mae, (
        f"lifecycle MAE {managed_mae:.3f} not below frozen {frozen_mae:.3f}"
    )
    assert managed_sustained <= frozen_sustained
