"""Feature scaling, in the style of LIBSVM's ``svm-scale``.

RBF kernels are scale-sensitive, so LIBSVM workflows scale every feature
to a fixed interval before training and apply the *same* affine map at
prediction time. :class:`MinMaxScaler` reproduces ``svm-scale``'s default
[-1, 1] behaviour; :class:`StandardScaler` (z-score) is provided as an
alternative.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError


def _as_rows(x: np.ndarray, n_features: int, where: str) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to a 2-D float matrix with ``n_features`` columns.

    Accepts a single 1-D row (like ``EpsilonSVR.predict``); returns the
    matrix and whether the input was a single row.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(
            f"{where}: expected a 1-D row or 2-D matrix, got shape {arr.shape}"
        )
    if arr.shape[1] != n_features:
        raise ValueError(
            f"{where}: expected {n_features} features, got {arr.shape[1]}"
        )
    return arr, single


class MinMaxScaler:
    """Affine map of each feature to ``[lower, upper]`` (default [-1, 1]).

    Constant features (max == min) map to the interval midpoint, matching
    svm-scale's behaviour of emitting a constant.
    """

    def __init__(self, lower: float = -1.0, upper: float = 1.0) -> None:
        if upper <= lower:
            raise ValueError(f"upper must exceed lower, got [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper
        self._min: np.ndarray | None = None
        self._max: np.ndarray | None = None
        # Fixed by ``fit``: the map's per-feature divisor, the indices
        # of constant columns (None when there are none) and their value.
        self._safe_span: np.ndarray | None = None
        self._constant: np.ndarray | None = None
        self._midpoint = 0.0

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        """Learn per-feature ranges from the training matrix."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"expected non-empty 2-D matrix, got shape {arr.shape}")
        self._min = arr.min(axis=0)
        self._max = arr.max(axis=0)
        span = self._max - self._min
        constant = span <= 0
        self._safe_span = np.where(constant, 1.0, span)
        self._constant = np.flatnonzero(constant) if constant.any() else None
        self._midpoint = 0.5 * (self.lower + self.upper)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned map; out-of-range values extrapolate linearly.

        Accepts a (n, d) matrix or a single 1-D row of d features (a 1-D
        input returns a 1-D output, like ``EpsilonSVR.predict``).
        """
        if self._min is None or self._max is None:
            raise NotFittedError("MinMaxScaler.transform called before fit")
        arr, single = _as_rows(x, self._min.shape[0], "MinMaxScaler.transform")
        # lower + ((arr − min) / safe_span)·(upper − lower), one buffer.
        out = arr - self._min
        np.divide(out, self._safe_span, out=out)
        np.multiply(out, self.upper - self.lower, out=out)
        np.add(out, self.lower, out=out)
        if self._constant is not None:
            out[:, self._constant] = self._midpoint
        return out[0] if single else out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """Map scaled values back to original units."""
        if self._min is None or self._max is None:
            raise NotFittedError("MinMaxScaler.inverse_transform called before fit")
        arr, single = _as_rows(x, self._min.shape[0], "MinMaxScaler.inverse_transform")
        span = self._max - self._min
        frac = (arr - self.lower) / (self.upper - self.lower)
        out = self._min + frac * span
        return out[0] if single else out


class StandardScaler:
    """Per-feature z-score scaling: subtract mean, divide by std."""

    def __init__(self) -> None:
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"expected non-empty 2-D matrix, got shape {arr.shape}")
        self._mean = arr.mean(axis=0)
        std = arr.std(axis=0)
        self._std = np.where(std <= 0, 1.0, std)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned standardization (matrix or single 1-D row)."""
        if self._mean is None or self._std is None:
            raise NotFittedError("StandardScaler.transform called before fit")
        arr, single = _as_rows(x, self._mean.shape[0], "StandardScaler.transform")
        out = (arr - self._mean) / self._std
        return out[0] if single else out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """Map standardized values back to original units."""
        if self._mean is None or self._std is None:
            raise NotFittedError("StandardScaler.inverse_transform called before fit")
        arr, single = _as_rows(x, self._mean.shape[0], "StandardScaler.inverse_transform")
        out = arr * self._std + self._mean
        return out[0] if single else out
