"""Kernel functions and Gram-matrix builders.

All kernels operate on 2-D ``numpy`` arrays of shape ``(n_samples,
n_features)`` and return dense Gram matrices. The RBF kernel is the
paper's choice; linear and polynomial are provided for the kernel
ablation benchmark.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class Kernel(ABC):
    """A positive-semidefinite kernel function."""

    @abstractmethod
    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix ``K[i, j] = k(a_i, b_j)`` of shape (len(a), len(b))."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.gram(a, b)

    def support_state(self, support: np.ndarray) -> object:
        """What :meth:`support_gram` reuses of a fitted model's support rows.

        A fitted ε-SVR computes this once, when it adopts its support
        vectors, so a prediction pays only for its query rows. The
        default keeps nothing.
        """
        return None

    def support_gram(
        self, a: np.ndarray, support: np.ndarray, state: object
    ) -> np.ndarray:
        """``gram(a, support)`` given ``support_state(support)``, bit for bit.

        ``a`` is a 2-D float matrix; the result is a fresh array the
        caller may overwrite.
        """
        return self.gram(a, support)

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used by grid search and reports."""


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ConfigurationError(f"kernel input must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D matrix."""
    return np.add.reduce(x * x, axis=1)


def squared_distances(
    a: np.ndarray, b: np.ndarray, b_norms: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0 for stability.

    ``‖a‖² + ‖b‖² − 2·a·bᵀ``; pass ``b_norms = row_norms(b)`` to reuse
    the right-hand norms (the result is the same either way).
    """
    d2 = row_norms(a)[:, None] + (row_norms(b) if b_norms is None else b_norms)
    ab = a @ b.T
    np.multiply(ab, 2.0, out=ab)
    np.subtract(d2, ab, out=d2)
    return np.maximum(d2, 0.0, out=d2)


@dataclass(frozen=True)
class RbfKernel(Kernel):
    """Radial basis function kernel ``exp(−γ‖a−b‖²)`` — the paper's kernel."""

    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")

    @property
    def name(self) -> str:
        return f"rbf(gamma={self.gamma:g})"

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_2d(a), _as_2d(b)
        return self._exp(squared_distances(a, b))

    def support_state(self, support: np.ndarray) -> np.ndarray:
        """The support rows' squared norms."""
        return row_norms(support)

    def support_gram(
        self, a: np.ndarray, support: np.ndarray, state: np.ndarray
    ) -> np.ndarray:
        return self._exp(squared_distances(a, support, state))

    def _exp(self, d2: np.ndarray) -> np.ndarray:
        """``exp(−γ·d2)``, overwriting ``d2``."""
        np.multiply(d2, -self.gamma, out=d2)
        return np.exp(d2, out=d2)


class GramCache:
    """RBF Gram matrices over one fixed row set, cached by γ.

    A grid search evaluates every (C, ε) pair — and, with shared folds,
    every cross-validation fold — against the same training rows, so the
    kernel evaluation can be hoisted out of the solver loop. The cache
    stores the γ-independent squared-distance matrix once and derives
    each requested Gram as ``exp(−γ·D²)`` — **the exact expression**
    :meth:`RbfKernel.gram` evaluates, so cached matrices are bit-identical
    to direct evaluation (slicing a larger Gram would not be: BLAS GEMM
    results differ between a submatrix product and a sliced full product).

    Only the ``max_entries`` most recently used Grams are retained
    (default 1), bounding memory at O(n²) for one γ at a time on top of
    the distance matrix. Returned arrays are read-only views of the
    cached buffers; callers must copy before mutating.
    """

    def __init__(self, x: np.ndarray, max_entries: int = 1) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._x = _as_2d(x)
        self._max_entries = max_entries
        self._d2: np.ndarray | None = None
        self._grams: dict[float, np.ndarray] = {}  # insertion-ordered LRU
        self.hits = 0
        self.misses = 0

    @property
    def n_rows(self) -> int:
        """Number of cached rows (the Gram matrices are n_rows²)."""
        return int(self._x.shape[0])

    @property
    def n_cached(self) -> int:
        """Number of Gram matrices currently retained (≤ max_entries)."""
        return len(self._grams)

    def squared(self) -> np.ndarray:
        """The shared squared-distance matrix (read-only, lazily built)."""
        if self._d2 is None:
            d2 = squared_distances(self._x, self._x)
            d2.setflags(write=False)
            self._d2 = d2
        return self._d2

    def gram(self, gamma: float) -> np.ndarray:
        """Gram matrix for ``RbfKernel(gamma)``, cached (read-only view).

        Bit-identical to ``RbfKernel(gamma).gram(x, x)`` for the cached
        rows, whether the value comes from the cache or is computed.
        """
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {gamma}")
        key = float(gamma)
        cached = self._grams.get(key)
        if cached is not None:
            self.hits += 1
            # Re-insert to mark as most recently used.
            del self._grams[key]
            self._grams[key] = cached
            return cached
        self.misses += 1
        gram = np.exp(-key * self.squared())
        gram.setflags(write=False)
        while len(self._grams) >= self._max_entries:
            oldest = next(iter(self._grams))
            del self._grams[oldest]
        self._grams[key] = gram
        return gram


@dataclass(frozen=True)
class LinearKernel(Kernel):
    """Plain inner product ``a·b``."""

    @property
    def name(self) -> str:
        return "linear"

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_2d(a), _as_2d(b)
        return a @ b.T

@dataclass(frozen=True)
class PolynomialKernel(Kernel):
    """Polynomial kernel ``(γ·a·b + coef0)^degree`` (LIBSVM convention)."""

    degree: int = 3
    gamma: float = 0.1
    coef0: float = 1.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {self.degree}")
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")

    @property
    def name(self) -> str:
        return f"poly(degree={self.degree}, gamma={self.gamma:g}, coef0={self.coef0:g})"

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_2d(a), _as_2d(b)
        return (self.gamma * (a @ b.T) + self.coef0) ** self.degree
