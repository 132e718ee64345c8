"""Bitwise parity of the lockstep batched SMO against the scalar solver."""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.svm import smo
from repro.svm.kernels import RbfKernel
from repro.svm.smo import solve_svr_dual, solve_svr_dual_batch


def make_problems(sizes, seed=0, gamma=0.5):
    """Independent regression problems of the requested sizes."""
    rng = np.random.default_rng(seed)
    problems = []
    for n in sizes:
        x = rng.uniform(-2, 2, size=(n, 3))
        y = 40.0 + 8.0 * x[:, 0] + 3.0 * np.sin(2.0 * x[:, 1]) + 0.2 * rng.normal(size=n)
        problems.append((RbfKernel(gamma=gamma).gram(x, x), y))
    return problems


def assert_results_bitwise_equal(batch, scalars):
    for index, (got, want) in enumerate(zip(batch, scalars)):
        assert np.array_equal(got.beta, want.beta), f"problem {index}: beta"
        assert got.bias == want.bias, f"problem {index}: bias"
        assert got.iterations == want.iterations, f"problem {index}: iterations"
        assert got.converged == want.converged, f"problem {index}: converged"
        assert got.kkt_gap == want.kkt_gap, f"problem {index}: kkt_gap"


PARITY_SIZES = [
    (30,),
    (25, 25, 25),
    (18, 30, 24, 7),
    (18, 30, 24, 7, 26, 12, 21, 15, 28, 19, 23, 17),
]


def test_parity_cases_cover_lockstep_and_hand_off():
    """Batches at or below ``_HANDOFF_WIDTH`` go straight to the scalar
    loop; wider ones run the lockstep. The parity cases cover both."""
    widths = [len(sizes) for sizes in PARITY_SIZES]
    assert min(widths) <= smo._HANDOFF_WIDTH
    assert max(widths) > smo._HANDOFF_WIDTH


class TestBitwiseParity:
    @pytest.mark.parametrize("sizes", PARITY_SIZES)
    def test_matches_scalar_solver(self, sizes):
        problems = make_problems(sizes)
        batch = solve_svr_dual_batch(
            [k for k, _ in problems], [y for _, y in problems],
            c=10.0, epsilon=0.1,
        )
        scalars = [
            solve_svr_dual(k, y, c=10.0, epsilon=0.1) for k, y in problems
        ]
        assert_results_bitwise_equal(batch, scalars)

    def test_matches_across_c_extremes(self):
        problems = make_problems((24, 31), seed=5)
        for c in (0.5, 64.0, 4096.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                batch = solve_svr_dual_batch(
                    [k for k, _ in problems], [y for _, y in problems],
                    c=c, epsilon=0.125, on_no_convergence="ignore",
                )
                scalars = [
                    solve_svr_dual(
                        k, y, c=c, epsilon=0.125, on_no_convergence="ignore"
                    )
                    for k, y in problems
                ]
            assert_results_bitwise_equal(batch, scalars)

    def test_matches_under_tight_iteration_budget(self):
        """Budget-exhausted problems report the same iterate and gap."""
        problems = make_problems((26, 20, 33), seed=2)
        batch = solve_svr_dual_batch(
            [k for k, _ in problems], [y for _, y in problems],
            c=100.0, epsilon=0.01, max_iter=25, on_no_convergence="ignore",
        )
        scalars = [
            solve_svr_dual(
                k, y, c=100.0, epsilon=0.01, max_iter=25,
                on_no_convergence="ignore",
            )
            for k, y in problems
        ]
        assert_results_bitwise_equal(batch, scalars)
        assert not any(result.converged for result in batch)

    def test_matches_with_per_problem_c_and_epsilon(self):
        """A whole-grid batch: every problem has its own (C, ε) pair."""
        base = make_problems((24, 31, 19), seed=8)
        cs = (1.0, 64.0, 512.0)
        eps = (0.125, 0.5, 0.01)
        kernels = [k for _ in cs for k, _ in base]
        targets = [y for _ in cs for _, y in base]
        c_vec = [c for c in cs for _ in base]
        e_vec = [e for e in eps for _ in base]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = solve_svr_dual_batch(
                kernels, targets, c=c_vec, epsilon=e_vec,
                max_iter=20_000, on_no_convergence="ignore",
            )
            scalars = [
                solve_svr_dual(
                    k, y, c=c, epsilon=e, max_iter=20_000,
                    on_no_convergence="ignore",
                )
                for k, y, c, e in zip(kernels, targets, c_vec, e_vec)
            ]
        assert_results_bitwise_equal(batch, scalars)

    def test_straggler_fold_compaction_keeps_parity(self):
        """One hard problem among many easy ones: the batch must run wide
        (well above the scalar hand-off width), compact repeatedly as the
        easy problems converge, and finally hand the straggler off."""
        rng = np.random.default_rng(11)
        problems = make_problems((12,) * 15, seed=11)
        # Make the last problem much harder to converge.
        x = rng.uniform(-2, 2, size=(40, 3))
        y = 50.0 + 20.0 * rng.normal(size=40)
        problems.append((RbfKernel(gamma=0.5).gram(x, x), y))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = solve_svr_dual_batch(
                [k for k, _ in problems], [y for _, y in problems],
                c=1000.0, epsilon=0.01, max_iter=5000,
                on_no_convergence="ignore",
            )
            scalars = [
                solve_svr_dual(
                    k, y, c=1000.0, epsilon=0.01, max_iter=5000,
                    on_no_convergence="ignore",
                )
                for k, y in problems
            ]
        assert_results_bitwise_equal(batch, scalars)


class TestBatchInterface:
    def test_empty_batch(self):
        assert solve_svr_dual_batch([], [], c=1.0, epsilon=0.1) == []

    def test_zero_size_problem_mixed_in(self):
        (k, y), = make_problems((20,), seed=3)
        results = solve_svr_dual_batch(
            [np.zeros((0, 0)), k], [np.zeros(0), y], c=10.0, epsilon=0.1
        )
        assert results[0].converged and results[0].beta.shape == (0,)
        assert results[0].bias == 0.0
        want = solve_svr_dual(k, y, c=10.0, epsilon=0.1)
        assert np.array_equal(results[1].beta, want.beta)
        assert results[1].bias == want.bias

    def test_rejects_length_mismatch(self):
        k = np.eye(3)
        with pytest.raises(ConfigurationError):
            solve_svr_dual_batch([k], [], c=1.0, epsilon=0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual_batch(
                [np.eye(3)], [np.zeros(4)], c=1.0, epsilon=0.1
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["kernel", "target", "c", "epsilon", "tol"])
    def test_rejects_non_finite_inputs(self, field, bad):
        """One non-finite value in any problem rejects the whole batch,
        as it would reject that problem in :func:`solve_svr_dual`."""
        problems = make_problems((14, 11, 9), seed=6)
        kernels = [k.copy() for k, _ in problems]
        targets = [y.copy() for _, y in problems]
        c = np.array([10.0, 64.0, 1.0])
        epsilon = np.array([0.1, 0.125, 0.01])
        tol = 1e-3
        if field == "kernel":
            kernels[1][2, 7] = bad
        elif field == "target":
            targets[2][0] = bad
        elif field == "c":
            c[1] = bad
        elif field == "epsilon":
            epsilon[2] = bad
        else:
            tol = bad
        with pytest.raises(ConfigurationError, match="finite"):
            solve_svr_dual_batch(kernels, targets, c=c, epsilon=epsilon, tol=tol)

    def test_rejects_zero_iteration_budget(self):
        with pytest.raises(ConfigurationError):
            solve_svr_dual_batch(
                [np.eye(3)], [np.zeros(3)], c=1.0, epsilon=0.1, max_iter=0
            )

    def test_raise_mode_on_no_convergence(self):
        problems = make_problems((30,), seed=4)
        with pytest.raises(ConvergenceError):
            solve_svr_dual_batch(
                [problems[0][0]], [problems[0][1]],
                c=1000.0, epsilon=0.001, max_iter=5,
                on_no_convergence="raise",
            )

    def test_warn_mode_reports_failed_indices(self):
        problems = make_problems((30,), seed=4)
        with pytest.warns(RuntimeWarning, match="1/1 problems"):
            solve_svr_dual_batch(
                [problems[0][0]], [problems[0][1]],
                c=1000.0, epsilon=0.001, max_iter=5,
            )
