"""Grid search for ε-SVR hyper-parameters — the ``easygrid`` substitute.

The paper: "Parameters for model training are selected using easygrid, a
tool for grid parameter search, with 10-fold validation." easygrid walks a
log₂ grid of (C, γ); we additionally expose ε since LIBSVM's regression
tube width matters for temperature-scale targets.

Every search goes through one path: all (C, γ, ε, fold) problems of the
grid are solved in one lockstep batch
(:func:`~repro.svm.smo.solve_svr_dual_batch`, chunked only to bound
memory) against per-fold Gram caches
(:class:`~repro.svm.kernels.GramCache`) that compute each fold's squared
distances once and each ``exp(−γ·D²)`` once per γ. Folds are shared
across the grid when ``rng`` is None and drawn per grid point otherwise.
The result — every trial MSE, the selected (C, γ, ε) and the refit
model — is **bit-identical** to the historical loop that cloned and
refitted an estimator per point and fold (enforced by
``tests/training/test_grid_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngStream
from repro.svm.cv import KFold
from repro.svm.kernels import GramCache, RbfKernel
from repro.svm.metrics import mean_squared_error
from repro.svm.smo import SmoResult, solve_svr_dual_batch
from repro.svm.svr import EpsilonSVR

#: Default log₂-style grids, a compact version of easygrid's defaults
#: sized for a few hundred training records.
DEFAULT_C_GRID = (1.0, 8.0, 64.0, 512.0)
DEFAULT_GAMMA_GRID = (0.03125, 0.125, 0.5, 2.0)
DEFAULT_EPSILON_GRID = (0.125, 0.5)


@dataclass(frozen=True)
class GridTrial:
    """One evaluated grid point: hyper-parameters and their CV score."""

    c: float
    gamma: float
    epsilon: float
    cv_mse: float

    def astuple(self) -> tuple[float, float, float, float]:
        """(c, gamma, epsilon, cv_mse) — the legacy tuple shape."""
        return (self.c, self.gamma, self.epsilon, self.cv_mse)


@dataclass
class GridSearchResult:
    """Outcome of a grid search."""

    best_c: float
    best_gamma: float
    best_epsilon: float
    best_cv_mse: float
    #: Every grid point evaluated, in (C → γ → ε) enumeration order.
    trials: list[GridTrial] = field(default_factory=list)

    def best_model(self, max_iter: int = 200_000) -> EpsilonSVR:
        """Fresh (unfitted) estimator at the winning parameters."""
        return EpsilonSVR(
            kernel=RbfKernel(gamma=self.best_gamma),
            c=self.best_c,
            epsilon=self.best_epsilon,
            max_iter=max_iter,
        )

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"best C={self.best_c:g}, gamma={self.best_gamma:g}, "
            f"epsilon={self.best_epsilon:g} (CV MSE {self.best_cv_mse:.4f}, "
            f"{len(self.trials)} grid points)"
        )

    def to_rows(self) -> list[tuple[float, float, float, float]]:
        """Trial rows for tabular reporting (see
        :func:`repro.experiments.reporting.format_grid_search`)."""
        return [trial.astuple() for trial in self.trials]


#: Cap on the stacked-kernel size (elements) of one lockstep batch.
#: ~256 MB of float64: big enough that the default grid over a few
#: hundred records stays in one batch, small enough that thousand-record
#: datasets do not balloon to gigabytes of padded kernels.
_MAX_BATCH_ELEMENTS = 32 * 1024 * 1024


def _solve_batch_chunked(
    x: np.ndarray,
    y: np.ndarray,
    problems: list[tuple[float, float, float, np.ndarray]],
    max_iter: int,
) -> list[SmoResult]:
    """Solve (C, γ, ε, train_idx) problems in memory-bounded lockstep chunks.

    Problems are independent, so slicing the batch changes nothing but
    peak memory: each chunk is capped at :data:`_MAX_BATCH_ELEMENTS`
    stacked-kernel elements (padded problems cost m² each), and its
    training Grams are built only when the chunk is solved. Each
    distinct training row set gets one :class:`GramCache` — squared
    distances once, one ``exp(−γ·D²)`` per γ, bit-identical to
    evaluating the fold kernel directly — which is dropped after the
    last problem that uses it.
    """
    keys = [train_idx.tobytes() for *_, train_idx in problems]
    last_use = {key: index for index, key in enumerate(keys)}
    n_gammas = len({gamma for _, gamma, _, _ in problems})
    caches: dict[bytes, GramCache] = {}

    def gram(index: int) -> np.ndarray:
        _, gamma, _, train_idx = problems[index]
        key = keys[index]
        if key not in caches:
            caches[key] = GramCache(x[train_idx], max_entries=n_gammas)
        value = caches[key].gram(gamma)
        if last_use[key] == index:
            del caches[key]
        return value

    m = max(len(train_idx) for *_, train_idx in problems)
    chunk = max(1, _MAX_BATCH_ELEMENTS // (m * m))
    results: list[SmoResult] = []
    for start in range(0, len(problems), chunk):
        batch = range(start, min(start + chunk, len(problems)))
        results.extend(
            solve_svr_dual_batch(
                [gram(i) for i in batch],
                [y[problems[i][3]] for i in batch],
                c=[problems[i][0] for i in batch],
                epsilon=[problems[i][2] for i in batch],
                max_iter=max_iter,
                on_no_convergence="ignore",
            )
        )
    return results


def _evaluate_grid(
    x: np.ndarray,
    y: np.ndarray,
    point_order: list[tuple[float, float, float]],
    point_folds: list[tuple[tuple[np.ndarray, np.ndarray], ...]],
    max_iter: int,
) -> list[float]:
    """k-fold CV MSE of every grid point, in ``point_order``.

    **Every** (C, γ, ε, fold) problem of the search advances in one
    lockstep batch (chunked only for memory) — the solver supports
    per-problem C and ε — so the search costs roughly the slowest
    single problem's iterations rather than the sum over points.
    Each fold is then scored exactly as the per-fold reference does:
    the solution is adopted over ``x[train_idx]`` (support vectors
    retained) and the validation rows go through
    ``EpsilonSVR.predict``.
    """
    problems = [
        (c, gamma, epsilon, train_idx)
        for (c, gamma, epsilon), folds in zip(point_order, point_folds)
        for train_idx, _ in folds
    ]
    results = iter(_solve_batch_chunked(x, y, problems, max_iter))
    scores: list[float] = []
    for (c, gamma, epsilon), folds in zip(point_order, point_folds):
        fold_mses = []
        for (train_idx, val_idx), result in zip(folds, results):
            model = EpsilonSVR(
                kernel=RbfKernel(gamma=gamma),
                c=c,
                epsilon=epsilon,
                max_iter=max_iter,
                on_no_convergence="ignore",
            )
            model.adopt_solution(x[train_idx], result)
            predictions = model.predict(x[val_idx])
            fold_mses.append(
                mean_squared_error(
                    y[val_idx].tolist(), np.atleast_1d(predictions).tolist()
                )
            )
        scores.append(sum(fold_mses) / len(fold_mses))
    return scores


def grid_search_svr(
    x,
    y,
    c_grid: tuple[float, ...] = DEFAULT_C_GRID,
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID,
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID,
    n_splits: int = 10,
    rng: RngStream | None = None,
    max_iter: int = 50_000,
) -> GridSearchResult:
    """Exhaustive (C, γ, ε) search minimizing k-fold CV MSE.

    Ties break toward smaller C then larger γ (preferring the smoother,
    better-regularized model), making results deterministic. Trials are
    reported in (C → γ → ε) enumeration order and the winner is selected
    by a sequential scan in that order.

    With ``rng=None`` every grid point shares the identity k-fold split;
    with an ``rng`` each point draws its own shuffle, in enumeration
    order. Each grid must be non-empty and free of repeated values (a
    repeated value would name two trials by the same point).
    """
    for name, grid in (
        ("c_grid", c_grid), ("gamma_grid", gamma_grid),
        ("epsilon_grid", epsilon_grid),
    ):
        if not grid:
            raise ConfigurationError(f"{name} must be non-empty")
        if len(set(grid)) != len(grid):
            raise ConfigurationError(f"{name} repeats a value: {tuple(grid)}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_samples = x.shape[0]
    point_order = [
        (c, gamma, epsilon)
        for c in c_grid
        for gamma in gamma_grid
        for epsilon in epsilon_grid
    ]
    if rng is None:
        shared = tuple(KFold(n_splits=n_splits).split(n_samples))
        point_folds = [shared] * len(point_order)
    else:
        # One independent shuffle per grid point, drawn in enumeration
        # order so the stream is consumed exactly as the sequential
        # reference loop consumed it.
        point_folds = [
            tuple(KFold(n_splits=n_splits, rng=rng).split(n_samples))
            for _ in point_order
        ]
    scores = _evaluate_grid(x, y, point_order, point_folds, max_iter)

    # Selection replicates the historical sequential scan verbatim, so
    # the winner (including tie-breaks) is independent of how and in
    # what order the trials were computed.
    trials: list[GridTrial] = []
    best: tuple[float, float, float] | None = None
    best_mse = float("inf")
    for (c, gamma, epsilon), mse in zip(point_order, scores):
        trials.append(GridTrial(c=c, gamma=gamma, epsilon=epsilon, cv_mse=mse))
        better = mse < best_mse - 1e-12
        tie = abs(mse - best_mse) <= 1e-12
        prefer = best is None or better
        if tie and best is not None and (c, -gamma) < (best[0], -best[1]):
            prefer = True
        if prefer:
            best = (c, gamma, epsilon)
            best_mse = mse
    assert best is not None  # grids are non-empty
    return GridSearchResult(
        best_c=best[0],
        best_gamma=best[1],
        best_epsilon=best[2],
        best_cv_mse=best_mse,
        trials=trials,
    )
