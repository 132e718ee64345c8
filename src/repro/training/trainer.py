"""The canonical stable-model training implementation.

Every trained ψ_stable model in the repo — the paper-figure predictors,
the CLI's quick models, and the per-server-class fleet registry — comes
through this module, so the easygrid-style search (per-fold Gram caches
and one lockstep batch of fold solves; see :mod:`repro.svm.grid`) is
exercised by one code path rather than three near-copies.
:func:`repro.core.pipeline.train_stable_predictor` remains the stable
public entry point and delegates here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.features import FeatureExtractor
from repro.core.records import ExperimentRecord
from repro.core.stable import StableTemperaturePredictor
from repro.errors import DatasetError
from repro.rng import RngStream
from repro.svm.grid import (
    DEFAULT_C_GRID,
    DEFAULT_EPSILON_GRID,
    DEFAULT_GAMMA_GRID,
    GridSearchResult,
    grid_search_svr,
)
from repro.svm.scaling import MinMaxScaler


@dataclass(frozen=True)
class StableTrainingReport:
    """What the training workflow produced."""

    predictor: StableTemperaturePredictor
    grid: GridSearchResult
    n_train: int


def train_stable_predictor(
    train_records: list[ExperimentRecord],
    n_splits: int = 10,
    c_grid: tuple[float, ...] = DEFAULT_C_GRID,
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID,
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID,
    rng: RngStream | None = None,
    extractor: FeatureExtractor | None = None,
) -> StableTrainingReport:
    """Grid-search hyper-parameters and fit the final stable model.

    The grid search scales features once over the training set (as
    svm-easygrid does) and cross-validates in the scaled space; the final
    predictor re-learns its own scaler during :meth:`fit`, keeping
    deployment self-contained.
    """
    if len(train_records) < n_splits:
        raise DatasetError(
            f"{len(train_records)} training records cannot be split into "
            f"{n_splits} folds"
        )
    extractor = extractor or FeatureExtractor()
    x = extractor.matrix(train_records)
    y = extractor.targets(train_records)
    x_scaled = MinMaxScaler().fit_transform(x)
    grid = grid_search_svr(
        x_scaled,
        y,
        c_grid=c_grid,
        gamma_grid=gamma_grid,
        epsilon_grid=epsilon_grid,
        n_splits=n_splits,
        rng=rng,
    )
    predictor = StableTemperaturePredictor(
        c=grid.best_c,
        gamma=grid.best_gamma,
        epsilon=grid.best_epsilon,
        extractor=extractor,
    )
    predictor.fit(train_records)
    return StableTrainingReport(
        predictor=predictor, grid=grid, n_train=len(train_records)
    )
