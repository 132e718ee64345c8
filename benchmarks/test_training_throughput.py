"""Training subsystem benchmarks.

Documents the training-layer headline claims:

* the easygrid-style (C, γ, ε) search over the default 4×4×2 grid with
  10-fold CV runs ≥4× faster than the seed triple-nested loop (fresh
  estimator, fresh kernel evaluation per point and fold) — via shared
  per-fold Gram caches and one lockstep batch of every (C, γ, ε, fold)
  SMO problem;
* the same single path also serves the paper figures' search (the
  figure grids with one k-fold shuffle per grid point, ``rng`` given):
  its trials are bit-identical to the seed loop's, and its walltime is
  reported against it without a floor;
* training a 16-class fleet registry (shared scaler + shared search +
  one batched refit pass) runs ≥4× faster than 16 sequential seed-style
  ``train_stable_predictor`` calls.

``TRAINING_BENCH_SMOKE=1`` shrinks both workloads to a 1-repeat smoke
(nightly CI) with a relaxed 2× floor — small problems leave the solver
mostly in Python overhead, which understates the speedup.
"""

import os
import statistics
import time

import numpy as np

from benchmarks.reporting import record_table
from repro.core.features import FeatureExtractor
from repro.core.stable import StableTemperaturePredictor
from repro.experiments.figures import (
    FIGURE_C_GRID,
    FIGURE_EPSILON_GRID,
    FIGURE_GAMMA_GRID,
)
from repro.rng import RngStream
from repro.svm.grid import (
    DEFAULT_C_GRID,
    DEFAULT_EPSILON_GRID,
    DEFAULT_GAMMA_GRID,
    grid_search_svr,
)
from repro.svm.scaling import MinMaxScaler
from repro.training.fleet_trainer import (
    FleetProfile,
    FleetTrainingConfig,
    train_fleet_registry,
)
from tests.training.seed_reference import seed_grid_search
from tests.training.test_fleet_trainer import synthetic_profile

SMOKE = bool(os.environ.get("TRAINING_BENCH_SMOKE"))
#: Records feeding the grid-search arm (subsampled from the session's
#: simulated dataset in smoke mode).
N_GRID_RECORDS = 40 if SMOKE else 120
#: Fleet registry arm: classes × records per class. The smoke shrink is
#: bounded from below: with only a dozen records per class the seed
#: baseline's per-class searches become trivially small and the shared
#: search's fixed cost dominates, understating the speedup.
N_CLASSES = 8 if SMOKE else 16
RECORDS_PER_CLASS = 30 if SMOKE else 60
N_SPLITS = 5 if SMOKE else 10
SPEEDUP_FLOOR = 2.0 if SMOKE else 4.0
REPEATS = 1 if SMOKE else 2
#: The gated default-grid arm times each path as the median of this many
#: alternating (seed, batched) pairs, so one stall on a shared host
#: cannot decide the floor.
GATED_PAIRS = 3


# -- seed-path baselines (shared replicas in tests/training) -----------------


def _seed_grid_search(x, y, n_splits=N_SPLITS, max_iter=50_000):
    """The seed loop over the default grids (rng=None), winner + score."""
    best, best_mse, _ = seed_grid_search(
        x, y, DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, DEFAULT_EPSILON_GRID,
        n_splits=n_splits, max_iter=max_iter,
    )
    return best, best_mse


def _seed_train_stable_predictor(records, n_splits=N_SPLITS):
    """Seed-style train_stable_predictor: seed search + refit."""
    extractor = FeatureExtractor()
    x = extractor.matrix(records)
    y = extractor.targets(records)
    x_scaled = MinMaxScaler().fit_transform(x)
    best, _ = _seed_grid_search(x_scaled, y, n_splits=n_splits)
    return StableTemperaturePredictor(
        c=best[0], gamma=best[1], epsilon=best[2], extractor=extractor
    ).fit(records)


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_grid_search_speedup_default_grid(labelled_records):
    """Acceptance: ≥4× over the seed loop on the default 4×4×2 grid.

    Both paths of the gated arm are timed as medians of alternating
    (seed, batched) pairs. A second arm runs the figure grids with
    per-point folds and asserts trials bit-identical to the seed loop
    (timed, no floor). Runs on the simulated profiling dataset (synthetic
    records with near-duplicate feature patterns produce
    unrepresentative, extremely ill-conditioned SMO problems).
    """
    extractor = FeatureExtractor()
    records = labelled_records[:N_GRID_RECORDS]
    x_scaled = MinMaxScaler().fit_transform(extractor.matrix(records))
    y = extractor.targets(records)

    seed_times, default_times = [], []
    for _ in range(GATED_PAIRS):
        (seed_best, seed_mse), elapsed = _timed(
            lambda: _seed_grid_search(x_scaled, y), repeats=1
        )
        seed_times.append(elapsed)
        default_result, elapsed = _timed(
            lambda: grid_search_svr(x_scaled, y, n_splits=N_SPLITS), repeats=1
        )
        default_times.append(elapsed)
    seed_elapsed = statistics.median(seed_times)
    default_elapsed = statistics.median(default_times)
    figure_grids = dict(
        c_grid=FIGURE_C_GRID, gamma_grid=FIGURE_GAMMA_GRID,
        epsilon_grid=FIGURE_EPSILON_GRID,
    )
    (_, _, seed_point_trials), seed_point_elapsed = _timed(
        lambda: seed_grid_search(
            x_scaled, y, n_splits=N_SPLITS, rng=RngStream(7, "cv"),
            **figure_grids,
        ),
        repeats=1,
    )
    point_result, point_elapsed = _timed(
        lambda: grid_search_svr(
            x_scaled, y, n_splits=N_SPLITS, rng=RngStream(7, "cv"),
            **figure_grids,
        )
    )

    default_identical = (
        (default_result.best_c, default_result.best_gamma,
         default_result.best_epsilon) == seed_best
        and default_result.best_cv_mse == seed_mse
    )
    point_identical = [t.astuple() for t in point_result.trials] == (
        seed_point_trials
    )
    speedup_default = seed_elapsed / default_elapsed
    speedup_point = seed_point_elapsed / point_elapsed
    n_points = len(FIGURE_C_GRID) * len(FIGURE_GAMMA_GRID) * len(FIGURE_EPSILON_GRID)
    rows = [
        f"{len(records)} records, {N_SPLITS}-fold CV",
        "",
        f"default grid ({len(default_result.trials)} points), shared folds, "
        f"medians of {GATED_PAIRS} alternating pairs",
        f"{'path':<38}{'walltime':>12}{'speedup':>10}",
        f"{'seed loop (per-point refits)':<38}{seed_elapsed:>10.2f}s{'1.0x':>10}",
        f"{'shared Gram + grid-wide batched SMO':<38}{default_elapsed:>10.2f}s"
        f"{speedup_default:>9.1f}x",
        "",
        f"figure grids ({n_points} points), per-point folds (rng)",
        f"{'path':<38}{'walltime':>12}{'speedup':>10}",
        f"{'seed loop (per-point refits)':<38}{seed_point_elapsed:>10.2f}s"
        f"{'1.0x':>10}",
        f"{'grid-wide batched SMO':<38}{point_elapsed:>10.2f}s"
        f"{speedup_point:>9.1f}x",
        "",
        f"{'default path bit-identical to seed:':<40}{default_identical}",
        f"{'per-point trials bit-identical to seed:':<40}{point_identical}",
        f"acceptance: default path >= {SPEEDUP_FLOOR:.0f}x"
        f"{' (smoke scale)' if SMOKE else ''}",
    ]
    record_table("training: grid search throughput (default grid)", "\n".join(rows))
    assert default_identical, "default grid search diverged from the seed loop"
    assert point_identical, "per-point-folds search diverged from the seed loop"
    assert speedup_default >= SPEEDUP_FLOOR, (
        f"grid search speedup {speedup_default:.1f}x below {SPEEDUP_FLOOR:.0f}x"
    )


def test_fleet_registry_training_speedup():
    """Acceptance: ≥4× for a 16-class registry vs 16 sequential trains."""
    profile: FleetProfile = synthetic_profile(
        records_per_class=RECORDS_PER_CLASS, n_classes=N_CLASSES, seed=7
    )
    groups = profile.classes()
    config = FleetTrainingConfig(
        n_splits=N_SPLITS, search_sample=160, min_class_records=4,
    )

    def sequential():
        registry = {}
        for key, indices in groups.items():
            class_records = [profile.records[i] for i in indices]
            registry[key] = _seed_train_stable_predictor(class_records)
        return registry

    def batched():
        return train_fleet_registry(profile, config)

    seq_registry, seq_elapsed = _timed(sequential, repeats=1)
    report, fleet_elapsed = _timed(batched)

    speedup = seq_elapsed / fleet_elapsed
    # Quality guard: the shared-search registry must predict its own
    # training records about as well as the per-class searches do.
    def registry_mse(predict):
        errors = []
        for key, indices in groups.items():
            class_records = [profile.records[i] for i in indices]
            actual = np.array([r.psi_stable_c for r in class_records])
            errors.append(float(np.mean((predict(key, class_records) - actual) ** 2)))
        return float(np.mean(errors))

    seq_mse = registry_mse(
        lambda key, recs: seq_registry[key].predict_many(recs)
    )
    fleet_mse = registry_mse(
        lambda key, recs: report.registry.resolve(key).predict_records(recs)
    )

    rows = [
        f"{N_CLASSES} classes x {RECORDS_PER_CLASS} records, "
        f"{N_SPLITS}-fold CV, default grids",
        "",
        f"{'path':<38}{'walltime':>12}{'train MSE':>12}",
        f"{'sequential train_stable_predictor':<38}{seq_elapsed:>10.2f}s"
        f"{seq_mse:>12.3f}",
        f"{'train_fleet_registry (batched)':<38}{fleet_elapsed:>10.2f}s"
        f"{fleet_mse:>12.3f}",
        "",
        f"speedup: {speedup:.1f}x (acceptance: >= {SPEEDUP_FLOOR:.0f}x"
        f"{', smoke scale' if SMOKE else ''})",
        f"classes with own model: {report.n_class_models}/{N_CLASSES}",
    ]
    record_table("training: fleet registry throughput", "\n".join(rows))
    assert report.n_class_models == N_CLASSES
    for spec_key in groups:
        assert spec_key in report.registry
    assert fleet_mse <= max(2.0 * seq_mse, seq_mse + 1.0), (
        f"shared-search registry lost accuracy: {fleet_mse:.3f} vs {seq_mse:.3f}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet training speedup {speedup:.1f}x below {SPEEDUP_FLOOR:.0f}x"
    )
