"""Unit tests for the SMO ε-SVR solver, including KKT checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.svm.kernels import LinearKernel, RbfKernel
from repro.svm.smo import solve_svr_dual


def linear_data(n=40, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 1))
    y = 3.0 * x[:, 0] + 1.0 + noise * rng.normal(size=n)
    return x, y


class TestSolutionQuality:
    def test_fits_linear_function_with_linear_kernel(self):
        x, y = linear_data()
        k = LinearKernel().gram(x, x)
        result = solve_svr_dual(k, y, c=100.0, epsilon=0.05)
        predictions = k @ result.beta + result.bias
        assert np.max(np.abs(predictions - y)) < 0.1

    def test_fits_nonlinear_function_with_rbf(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(60, 1))
        y = np.sin(2.0 * x[:, 0])
        k = RbfKernel(gamma=1.0).gram(x, x)
        result = solve_svr_dual(k, y, c=100.0, epsilon=0.02)
        predictions = k @ result.beta + result.bias
        assert np.mean((predictions - y) ** 2) < 0.01

    def test_constant_targets_all_within_tube(self):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        y = np.full(10, 5.0)
        k = RbfKernel(gamma=1.0).gram(x, x)
        result = solve_svr_dual(k, y, c=10.0, epsilon=0.5)
        # Everything inside the ε-tube around a constant: trivial duals.
        assert np.allclose(result.beta, 0.0)
        assert result.bias == pytest.approx(5.0, abs=0.5)


class TestDualConstraints:
    def test_equality_constraint_holds(self):
        x, y = linear_data(noise=0.3)
        k = RbfKernel(gamma=0.5).gram(x, x)
        result = solve_svr_dual(k, y, c=10.0, epsilon=0.1)
        assert np.sum(result.beta) == pytest.approx(0.0, abs=1e-9)

    def test_box_constraint_holds(self):
        x, y = linear_data(noise=0.5)
        c = 5.0
        k = RbfKernel(gamma=0.5).gram(x, x)
        result = solve_svr_dual(k, y, c=c, epsilon=0.1)
        assert np.all(result.beta <= c + 1e-9)
        assert np.all(result.beta >= -c - 1e-9)

    def test_kkt_gap_below_tolerance_on_convergence(self):
        x, y = linear_data(noise=0.2)
        k = RbfKernel(gamma=0.5).gram(x, x)
        result = solve_svr_dual(k, y, c=10.0, epsilon=0.1, tol=1e-3)
        assert result.converged
        assert result.kkt_gap <= 1e-3 + 1e-12

    def test_support_vectors_subset_reported(self):
        x, y = linear_data(n=50, noise=0.3)
        k = RbfKernel(gamma=0.5).gram(x, x)
        result = solve_svr_dual(k, y, c=10.0, epsilon=0.3)
        assert 0 < result.n_support <= 50
        assert result.support_mask.sum() == result.n_support

    def test_epsilon_insensitive_points_have_zero_dual(self):
        # Points strictly inside the tube must not be support vectors.
        x = np.linspace(-1, 1, 30).reshape(-1, 1)
        y = 2.0 * x[:, 0]
        k = LinearKernel().gram(x, x)
        result = solve_svr_dual(k, y, c=100.0, epsilon=0.5)
        predictions = k @ result.beta + result.bias
        interior = np.abs(y - predictions) < 0.5 - 1e-6
        assert np.all(np.abs(result.beta[interior]) < 100.0 - 1e-6)


class TestRobustness:
    def test_empty_problem(self):
        result = solve_svr_dual(np.zeros((0, 0)), np.zeros(0), c=1.0, epsilon=0.1)
        assert result.converged
        assert result.beta.shape == (0,)

    def test_single_point(self):
        result = solve_svr_dual(np.array([[1.0]]), np.array([3.0]), c=1.0, epsilon=0.1)
        assert result.converged
        predictions = np.array([[1.0]]) @ result.beta + result.bias
        assert predictions[0] == pytest.approx(3.0, abs=0.2)

    def test_iteration_budget_raises_when_asked(self):
        x, y = linear_data(n=60, noise=1.0, seed=5)
        k = RbfKernel(gamma=5.0).gram(x, x)
        with pytest.raises(ConvergenceError):
            solve_svr_dual(
                k, y, c=1e6, epsilon=1e-6, max_iter=3, on_no_convergence="raise"
            )

    def test_iteration_budget_warns_by_default(self):
        x, y = linear_data(n=60, noise=1.0, seed=5)
        k = RbfKernel(gamma=5.0).gram(x, x)
        with pytest.warns(RuntimeWarning):
            solve_svr_dual(k, y, c=1e6, epsilon=1e-6, max_iter=3)

    def test_iteration_budget_silent_when_ignored(self):
        import warnings

        x, y = linear_data(n=60, noise=1.0, seed=5)
        k = RbfKernel(gamma=5.0).gram(x, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_svr_dual(
                k, y, c=1e6, epsilon=1e-6, max_iter=3, on_no_convergence="ignore"
            )


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["kernel", "target", "c", "epsilon", "tol"])
    def test_rejects_non_finite_inputs(self, field, bad):
        """A NaN target once came back as ``converged=True`` after 0
        iterations with a NaN bias, and an inf Gram entry as a finite
        bias; every non-finite input is now a configuration error."""
        x, y = linear_data(n=12, noise=0.1)
        args = {
            "kernel_matrix": RbfKernel(gamma=0.5).gram(x, x),
            "y": y,
            "c": 10.0,
            "epsilon": 0.1,
            "tol": 1e-3,
        }
        if field == "kernel":
            args["kernel_matrix"][3, 5] = bad
        elif field == "target":
            args["y"][4] = bad
        else:
            args[field] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            solve_svr_dual(**args)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual(np.eye(3), np.zeros(4), c=1.0, epsilon=0.1)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual(np.eye(3), np.zeros(3), c=0.0, epsilon=0.1)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual(np.eye(3), np.zeros(3), c=1.0, epsilon=-0.1)

    def test_rejects_zero_iteration_budget(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual(np.eye(3), np.zeros(3), c=1.0, epsilon=0.1, max_iter=0)

    def test_rejects_unknown_convergence_policy(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual(
                np.eye(3), np.zeros(3), c=1.0, epsilon=0.1, on_no_convergence="explode"
            )


class TestConvergedFlagConsistency:
    """Regression: a numerically stuck pair used to break out of the loop
    with ``converged=False`` even when the KKT gap was already at (or
    within a small multiple of) tol — callers saw spurious
    non-convergence on well-solved problems."""

    def test_converged_flag_matches_gap_on_random_problems(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1, 1, size=(40, 6))
            y = 10.0 * x[:, 0] + 3.0 * np.sin(2.0 * x[:, 1])
            k = RbfKernel(gamma=0.2).gram(x, x)
            result = solve_svr_dual(
                k, y, c=100.0, epsilon=0.1, on_no_convergence="ignore"
            )
            # Contract: the flag may never contradict the reported gap.
            if result.kkt_gap <= 1e-3:
                assert result.converged, (
                    f"seed {seed}: gap {result.kkt_gap} <= tol but converged=False"
                )

    def test_duplicated_points_still_report_convergence(self):
        # Identical rows produce zero-curvature pairs — the classic path
        # into the numerically-stuck branch.
        x = np.repeat(np.linspace(-1, 1, 8).reshape(-1, 1), 4, axis=0)
        y = np.repeat(np.linspace(0, 5, 8), 4)
        k = RbfKernel(gamma=1.0).gram(x, x)
        result = solve_svr_dual(k, y, c=50.0, epsilon=0.01)
        assert result.converged
        assert result.kkt_gap <= 10.0 * 1e-3

    def test_benchmark_problem_converges(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 10))
        y = 40.0 + 10.0 * x[:, 0] + 5.0 * np.sin(3.0 * x[:, 1])
        k = RbfKernel(gamma=0.1).gram(x, x)
        result = solve_svr_dual(k, y, c=100.0, epsilon=0.1)
        assert result.converged

