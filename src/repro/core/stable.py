"""Stable CPU temperature prediction — Eq. (1)–(2).

The :class:`StableTemperaturePredictor` is the deployable model of the
paper's §II: feature extraction → svm-scale-style scaling → ε-SVR with an
RBF kernel. Hyper-parameters come either from explicit arguments or from
the easygrid-equivalent search in :func:`repro.core.pipeline.train_stable_predictor`.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import FeatureExtractor
from repro.core.records import ExperimentRecord
from repro.errors import DatasetError, NotFittedError
from repro.svm.kernels import RbfKernel
from repro.svm.metrics import (
    mean_absolute_error,
    mean_squared_error,
    r2_score,
    rmse,
)
from repro.svm.scaling import MinMaxScaler
from repro.svm.svr import EpsilonSVR, predict_scaled


class StableTemperaturePredictor:
    """ψ_stable regressor over Eq. (2) records.

    Parameters
    ----------
    c, gamma, epsilon:
        ε-SVR hyper-parameters (LIBSVM's -c/-g/-p).
    extractor:
        Feature extractor; a default instance is created when omitted.
    """

    def __init__(
        self,
        c: float = 64.0,
        gamma: float = 0.125,
        epsilon: float = 0.125,
        extractor: FeatureExtractor | None = None,
        max_iter: int = 200_000,
    ) -> None:
        self.c = c
        self.gamma = gamma
        self.epsilon = epsilon
        self.extractor = extractor or FeatureExtractor()
        self.max_iter = max_iter
        self._scaler: MinMaxScaler | None = None
        self._model: EpsilonSVR | None = None

    # -- training ------------------------------------------------------------

    def fit(self, records: list[ExperimentRecord]) -> "StableTemperaturePredictor":
        """Train on labelled records."""
        if len(records) < 2:
            raise DatasetError(
                f"need at least 2 labelled records to train, got {len(records)}"
            )
        x = self.extractor.matrix(records)
        y = self.extractor.targets(records)
        self._scaler = MinMaxScaler()
        x_scaled = self._scaler.fit_transform(x)
        self._model = EpsilonSVR(
            kernel=RbfKernel(gamma=self.gamma),
            c=self.c,
            epsilon=self.epsilon,
            max_iter=self.max_iter,
        )
        self._model.fit(x_scaled, y)
        return self

    # -- inference ------------------------------------------------------------

    def predict(self, record: ExperimentRecord) -> float:
        """ψ_stable forecast for one record's inputs."""
        return float(self.predict_many([record])[0])

    def predict_many(self, records: list[ExperimentRecord]) -> np.ndarray:
        """ψ_stable forecasts for many records."""
        return self.predict_features(self.extractor.matrix(records))

    def predict_features(self, x: np.ndarray) -> np.ndarray:
        """ψ_stable forecasts for rows laid out like ``extractor.matrix``.

        The one kernel path: :meth:`predict_many` is this over
        ``extractor.matrix(records)``, and the what-if scorer feeds it
        rows built straight from fleet arrays.
        """
        if self._scaler is None or self._model is None:
            raise NotFittedError("StableTemperaturePredictor used before fit")
        return predict_scaled(self._scaler, self._model, x)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, records: list[ExperimentRecord]) -> dict[str, float]:
        """Metrics against labelled records (MSE is the paper's figure)."""
        actual = [r.require_output() for r in records]
        predicted = self.predict_many(records).tolist()
        return {
            "mse": mean_squared_error(actual, predicted),
            "rmse": rmse(actual, predicted),
            "mae": mean_absolute_error(actual, predicted),
            "r2": r2_score(actual, predicted),
            "n": float(len(records)),
        }

    # -- plumbing ---------------------------------------------------------------

    def clone(self) -> "StableTemperaturePredictor":
        """Unfitted copy with identical hyper-parameters."""
        return StableTemperaturePredictor(
            c=self.c,
            gamma=self.gamma,
            epsilon=self.epsilon,
            extractor=self.extractor,
            max_iter=self.max_iter,
        )

    @property
    def is_fitted(self) -> bool:
        """Whether fit() has completed."""
        return self._model is not None

    @property
    def scaler(self) -> MinMaxScaler:
        """The fitted feature scaler (for sharing via a model registry)."""
        if self._scaler is None:
            raise NotFittedError("StableTemperaturePredictor not fitted")
        return self._scaler

    @property
    def svr(self) -> EpsilonSVR:
        """The fitted ε-SVR (for sharing via a model registry)."""
        if self._model is None:
            raise NotFittedError("StableTemperaturePredictor not fitted")
        return self._model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StableTemperaturePredictor(c={self.c:g}, gamma={self.gamma:g}, "
            f"epsilon={self.epsilon:g}, fitted={self.is_fitted})"
        )
