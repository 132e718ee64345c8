"""ε-Support-Vector Regression estimator (the LIBSVM ``svm-train -s 3``
equivalent).

Wraps :func:`repro.svm.smo.solve_svr_dual` behind a fit/predict interface
and keeps only the support vectors for prediction. Callers that solve many
problems at once (grid search, fleet refits) run
:func:`repro.svm.smo.solve_svr_dual_batch` themselves and install each
result with :meth:`EpsilonSVR.adopt_solution`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.svm.kernels import Kernel, RbfKernel
from repro.svm.scaling import MinMaxScaler
from repro.svm.smo import SmoResult, solve_svr_dual


class EpsilonSVR:
    """ε-SVR with an arbitrary kernel (RBF by default, as in the paper).

    Parameters
    ----------
    kernel:
        Kernel instance; defaults to :class:`RbfKernel` with γ=0.1.
    c:
        Box constraint — regularization/penalty trade-off.
    epsilon:
        Half-width of the ε-insensitive tube, in target units.
    tol:
        SMO stopping tolerance.
    max_iter:
        SMO iteration budget.
    on_no_convergence:
        Forwarded to the solver (``"warn"``, ``"raise"``, ``"ignore"``).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        c: float = 10.0,
        epsilon: float = 0.1,
        tol: float = 1e-3,
        max_iter: int = 200_000,
        on_no_convergence: str = "warn",
    ) -> None:
        self.kernel = kernel or RbfKernel(gamma=0.1)
        self.c = c
        self.epsilon = epsilon
        self.tol = tol
        self.max_iter = max_iter
        self.on_no_convergence = on_no_convergence
        self._support_x: np.ndarray | None = None
        self._support_beta: np.ndarray | None = None
        # The kernel's precomputed support-side state (for RBF, the
        # support vectors' squared norms), set with the support vectors.
        self._support_state: object = None
        self._bias = 0.0
        self._last_result: SmoResult | None = None
        # Reusable (2, d) scratch for single-row _decision padding; the
        # request-serving front-end issues many n=1 predictions and the
        # per-call vstack allocation dominated that path.
        self._pad2: np.ndarray | None = None

    # -- training ------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "EpsilonSVR":
        """Train on a feature matrix ``x`` (n, d) and targets ``y`` (n,)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"y shape {y.shape} does not match {x.shape[0]} samples"
            )
        result = solve_svr_dual(
            self.kernel.gram(x, x),
            y,
            c=self.c,
            epsilon=self.epsilon,
            tol=self.tol,
            max_iter=self.max_iter,
            on_no_convergence=self.on_no_convergence,
        )
        return self.adopt_solution(x, result)

    def adopt_solution(self, x: np.ndarray, result: SmoResult) -> "EpsilonSVR":
        """Install a solver result as this estimator's fitted state.

        The precomputed-kernel counterpart of :meth:`fit`: the caller ran
        :func:`~repro.svm.smo.solve_svr_dual` (or the batched
        :func:`~repro.svm.smo.solve_svr_dual_batch`) against this
        estimator's kernel and hyper-parameters over training rows ``x``;
        only the support vectors are retained, exactly as :meth:`fit`
        would.
        """
        x = np.asarray(x, dtype=float)
        if result.beta.shape != (x.shape[0],):
            raise ValueError(
                f"solution has {result.beta.shape[0]} coefficients but x has "
                f"{x.shape[0]} rows"
            )
        mask = result.support_mask
        self._support_x = x[mask]
        self._support_beta = result.beta[mask]
        self._support_state = self.kernel.support_state(self._support_x)
        self._bias = result.bias
        self._last_result = result
        return self

    # -- inference ------------------------------------------------------------

    #: Rows per kernel block in :meth:`predict`; bounds the transient
    #: (rows × n_support) Gram allocation when scoring huge batches.
    predict_chunk_rows: int = 4096

    def predict(self, x: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Predict targets for a feature matrix (or a single row).

        Large batches are scored in blocks of ``chunk_size`` rows
        (default :attr:`predict_chunk_rows`), so monitor-driven scenarios
        can push thousands of VM feature rows through one call without
        materializing a full (n, n_support) Gram matrix.

        Results are **bit-identical regardless of batch composition**:
        kernel rows are independent, and one-row blocks are evaluated
        through the same two-row BLAS kernel as larger batches (single-row
        GEMM/GEMV paths round differently), so ``predict(x)[i] ==
        predict(x[i])`` exactly. The fleet prediction service
        (:mod:`repro.serving`) relies on this to keep batched inference
        in parity with per-record loops.
        """
        if self._support_x is None or self._support_beta is None:
            raise NotFittedError("EpsilonSVR.predict called before fit")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        n = x.shape[0]
        if self._support_x.shape[0] == 0:
            # All-zero dual (e.g. targets within ε of the bias): constant.
            out = np.full(n, self._bias)
        else:
            chunk = chunk_size or self.predict_chunk_rows
            if n <= chunk:
                out = self._decision(x)
            else:
                out = np.empty(n, dtype=float)
                for start in range(0, n, chunk):
                    block = x[start : start + chunk]
                    out[start : start + chunk] = self._decision(block)
        return out[0] if single else out

    def _decision(self, block: np.ndarray) -> np.ndarray:
        """Kernel expansion for one block of rows.

        A one-row block is padded to two identical rows so the Gram
        computation exercises the same n>=2 GEMM kernel as larger batches
        (BLAS row results are content independent from two rows up but
        the one-row path rounds differently), and the kernel-weight
        contraction uses ``einsum`` rather than GEMV (whose rounding
        depends on the row count). Together these make predictions
        bitwise reproducible across batch compositions.
        """
        one_row = block.shape[0] == 1
        if one_row:
            # Reuse a (2, d) scratch buffer across calls instead of
            # allocating a fresh vstack per single-row prediction; the
            # written values are identical, so the Gram block (and hence
            # the prediction) is bit-for-bit the same.
            pad = self._pad2
            if pad is None or pad.shape[1] != block.shape[1]:
                pad = self._pad2 = np.empty((2, block.shape[1]))
            pad[...] = block
            block = pad
        gram = self.kernel.support_gram(block, self._support_x, self._support_state)
        values = np.einsum("ij,j->i", gram, self._support_beta)
        np.add(values, self._bias, out=values)
        return values[:1] if one_row else values

    # -- introspection ----------------------------------------------------------

    @property
    def n_support(self) -> int:
        """Number of support vectors retained after training."""
        if self._support_beta is None:
            raise NotFittedError("model not fitted")
        return int(self._support_beta.shape[0])

    @property
    def bias(self) -> float:
        """Intercept of the decision function."""
        return self._bias

    @property
    def last_result(self) -> SmoResult:
        """The raw solver result from the last fit."""
        if self._last_result is None:
            raise NotFittedError("model not fitted")
        return self._last_result

    def clone(self) -> "EpsilonSVR":
        """Unfitted copy with identical hyper-parameters."""
        return EpsilonSVR(
            kernel=self.kernel,
            c=self.c,
            epsilon=self.epsilon,
            tol=self.tol,
            max_iter=self.max_iter,
            on_no_convergence=self.on_no_convergence,
        )

    def __getstate__(self) -> dict:
        # The pad scratch is a pure performance cache: dropping it keeps
        # pickles identical whether or not a single-row predict ran.
        state = self.__dict__.copy()
        state["_pad2"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpsilonSVR(kernel={self.kernel.name}, c={self.c:g}, "
            f"epsilon={self.epsilon:g})"
        )


def predict_scaled(scaler: MinMaxScaler, model: EpsilonSVR, x: np.ndarray) -> np.ndarray:
    """ψ_stable forecasts for raw feature rows (or one 1-D row), always 1-D.

    The svm-scale map, then the kernel expansion: the one prediction
    tail that ``StableTemperaturePredictor`` and the serving registry's
    ``ModelEntry`` share.
    """
    return np.atleast_1d(model.predict(scaler.transform(x)))
