"""Precomputed prediction state never goes stale.

``MinMaxScaler.fit`` fixes the svm-scale map's divisor, constant-column
mask and midpoint, and ``EpsilonSVR.adopt_solution`` has the kernel
prepare its support-side state (the RBF support norms). A second fit of
the same object must replace all of it: each refit object predicts
bitwise like a fresh one fitted on the same data.
"""

import numpy as np
import pytest

from repro.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.svm.scaling import MinMaxScaler
from repro.svm.smo import solve_svr_dual_batch
from repro.svm.svr import EpsilonSVR, predict_scaled


def _matrix(seed: int, constant: tuple[int, ...], n: int = 24) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 5))
    for column in constant:
        x[:, column] = 0.25 * column
    return x


def _targets(x: np.ndarray) -> np.ndarray:
    return 40.0 + 2.0 * x[:, 0] - np.cos(x[:, 1]) + 0.3 * x[:, 3] * x[:, 4]


@pytest.mark.parametrize(
    "first, second", [((1,), (0, 2)), ((1, 3), ()), ((), (2,))]
)
def test_scaler_refit_with_other_constant_columns_matches_fresh(first, second):
    queries = _matrix(9, ())
    train = _matrix(8, second)
    scaler = MinMaxScaler().fit(_matrix(7, first))
    scaler.transform(queries)
    scaler.fit(train)
    fresh = MinMaxScaler().fit(train)
    assert np.array_equal(scaler.transform(queries), fresh.transform(queries))
    assert np.array_equal(scaler.transform(queries[0]), fresh.transform(queries[0]))
    svr = EpsilonSVR(kernel=RbfKernel(gamma=0.4), c=10.0).fit(
        fresh.transform(train), _targets(train)
    )
    for rows in (queries[0], queries[:1], queries[:2], queries):
        assert np.array_equal(
            predict_scaled(scaler, svr, rows), predict_scaled(fresh, svr, rows)
        )


KERNELS = [
    RbfKernel(gamma=0.4),
    LinearKernel(),
    PolynomialKernel(degree=3, gamma=0.2, coef0=1.0),
]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_svr_refit_matches_fresh(kernel):
    first, second = _matrix(1, ()), _matrix(2, (), n=31)
    queries = _matrix(3, ())
    svr = EpsilonSVR(kernel=kernel, c=10.0, epsilon=0.1, max_iter=5_000,
                     on_no_convergence="ignore")
    svr.fit(first, _targets(first))
    svr.predict(queries[:1])
    svr.fit(second, _targets(second))
    fresh = svr.clone().fit(second, _targets(second))
    for rows in (queries[0], queries[:1], queries[:2], queries):
        assert np.array_equal(svr.predict(rows), fresh.predict(rows))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_svr_second_adopt_solution_matches_fresh(kernel):
    first, second = _matrix(4, ()), _matrix(5, (), n=29)
    queries = _matrix(6, ())
    results = solve_svr_dual_batch(
        [kernel.gram(first, first), kernel.gram(second, second)],
        [_targets(first), _targets(second)],
        c=10.0, epsilon=0.1, max_iter=5_000, on_no_convergence="ignore",
    )
    svr = EpsilonSVR(kernel=kernel, c=10.0, epsilon=0.1)
    svr.adopt_solution(first, results[0])
    svr.predict(queries[:1])
    svr.adopt_solution(second, results[1])
    fresh = svr.clone().adopt_solution(second, results[1])
    for rows in (queries[0], queries[:1], queries[:2], queries):
        assert np.array_equal(svr.predict(rows), fresh.predict(rows))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("n_rows", [1, 2, 3, 40])
def test_support_gram_is_gram_bit_for_bit(kernel, n_rows):
    support = _matrix(10, ())
    rows = _matrix(11, (), n=n_rows)
    state = kernel.support_state(support)
    assert np.array_equal(
        kernel.support_gram(rows, support, state), kernel.gram(rows, support)
    )
