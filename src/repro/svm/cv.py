"""k-fold cross-validation (the paper uses 10-fold).

The splitter and the generic :func:`cross_val_mse`, which works with any
:class:`Regressor`. The grid search (:mod:`repro.svm.grid`) draws its
folds from :class:`KFold` and batches the fold solves itself.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngStream
from repro.svm.metrics import mean_squared_error


class Regressor(Protocol):
    """Anything with fit/predict/clone — EpsilonSVR, KernelRidge, baselines."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Regressor": ...

    def predict(self, x: np.ndarray) -> np.ndarray: ...

    def clone(self) -> "Regressor": ...


class KFold:
    """Deterministic k-fold splitter with optional shuffling.

    Folds differ in size by at most one sample, every sample appears in
    exactly one validation fold, and the split depends only on the
    supplied RNG stream (or is the identity order when ``rng`` is None).
    """

    def __init__(self, n_splits: int = 10, rng: RngStream | None = None) -> None:
        if n_splits < 2:
            raise ConfigurationError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self._rng = rng

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, validation_indices) pairs."""
        if n_samples < self.n_splits:
            raise ConfigurationError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        order = list(range(n_samples))
        if self._rng is not None:
            self._rng.shuffle(order)
        order_arr = np.array(order)
        base = n_samples // self.n_splits
        remainder = n_samples % self.n_splits
        start = 0
        for fold in range(self.n_splits):
            size = base + (1 if fold < remainder else 0)
            val = order_arr[start : start + size]
            train = np.concatenate([order_arr[:start], order_arr[start + size :]])
            yield train, val
            start += size


def cross_val_mse(
    model: Regressor,
    x: np.ndarray,
    y: np.ndarray,
    n_splits: int = 10,
    rng: RngStream | None = None,
) -> float:
    """Mean validation MSE of ``model`` across k folds.

    The model is cloned per fold, so the argument is never mutated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scores = []
    for train_idx, val_idx in KFold(n_splits=n_splits, rng=rng).split(x.shape[0]):
        fold_model = model.clone()
        fold_model.fit(x[train_idx], y[train_idx])
        predictions = fold_model.predict(x[val_idx])
        scores.append(mean_squared_error(y[val_idx].tolist(), np.atleast_1d(predictions).tolist()))
    return sum(scores) / len(scores)
