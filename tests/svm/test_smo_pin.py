"""Bit-identity pins for the ε-SVR SMO solvers.

``solve_svr_dual`` is the reference and ``solve_svr_dual_batch`` must
reproduce it bit for bit. ``test_smo_batch.py`` checks the two against
each other; these tests pin both to fixed bits (``float.hex`` of every
``SmoResult`` field, hashed), so a rewrite of either solver's arithmetic
must reproduce the same iterates, not merely close or mutually equal
ones. The cases follow the shapes the solvers are given:

* drift retrain rounds: 6 and 12 problems of n = 25–35;
* a lifecycle retrain round: 16 classes × (5 folds + refit) at n = 48/60;
* ragged batches on both sides of the scalar hand-off width;
* a grid-search batch with per-problem C ∈ {0.5, 128, 4096} and ε;
* an ε wider than the target range (β = 0), n = 0 and n = 1 problems,
  and a run that exhausts ``max_iter``.

Gram matrices are built elementwise so the pinned bits do not depend on
the BLAS build.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.svm.smo import solve_svr_dual, solve_svr_dual_batch


def _gram(x: np.ndarray, gamma: float) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.exp(-gamma * (diff * diff).sum(axis=2))


def _problem(rng, n, gamma=0.25, dims=4):
    x = rng.uniform(-1.0, 1.0, size=(n, dims))
    y = (
        38.0 + 9.0 * x[:, 0] + 4.0 * np.sin(2.5 * x[:, 1]) + 2.0 * x[:, 2] * x[:, 3]
        + 0.3 * rng.normal(size=n)
    )
    return _gram(x, gamma), y


def _digest(results) -> str:
    lines = []
    for result in results:
        lines.extend(float(v).hex() for v in result.beta)
        lines.append(float(result.bias).hex())
        lines.append(float(result.kkt_gap).hex())
        lines.append(float(result.iterations).hex())
        lines.append(float(result.converged).hex())
        lines.append("|")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _solve_both(kernels, targets, c, epsilon, scalar=True, **kwargs):
    """Digests of the batch solve and, optionally, the scalar solves."""
    n = len(kernels)
    cs = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (n,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = solve_svr_dual_batch(kernels, targets, c=c, epsilon=epsilon, **kwargs)
        if not scalar:
            return _digest(batch), None
        scalars = [
            solve_svr_dual(k, y, c=float(ci), epsilon=float(ei), **kwargs)
            for k, y, ci, ei in zip(kernels, targets, cs, eps)
        ]
    return _digest(batch), _digest(scalars)


def _pinned(got: "tuple[str, str | None]", want: str) -> None:
    batch, scalar = got
    assert batch == want
    if scalar is not None:
        assert scalar == want


@pytest.mark.parametrize(
    "sizes, want",
    [
        (
            (25, 31, 28, 35, 26, 33),
            "1d9c5a6931794af377ac52f2d183f6067326bc095af9d9b3705402ab5935606e",
        ),
        (
            (32, 25, 26, 25, 26, 32, 28, 34, 29, 27, 35, 30),
            "71c65443f4355a099b58ffffd2e7e59d181ccdb51917253896ecdfa7f0cfafaf",
        ),
    ],
)
def test_drift_retrain_batches_pinned(sizes, want):
    rng = np.random.default_rng(len(sizes))
    problems = [_problem(rng, n) for n in sizes]
    got = _solve_both(
        [k for k, _ in problems], [y for _, y in problems],
        c=128.0, epsilon=0.125, max_iter=50_000, on_no_convergence="ignore",
    )
    _pinned(got, want)


def test_lifecycle_round_batch_pinned():
    """16 classes × (5 folds of 48 + one refit of 60), per-class γ."""
    rng = np.random.default_rng(16)
    kernels, targets = [], []
    for cls in range(16):
        gamma = (0.03125, 0.125)[cls % 2]
        x = rng.uniform(-1.0, 1.0, size=(60, 5))
        y = 40.0 + 6.0 * x[:, 0] + 3.0 * np.cos(2.0 * x[:, 1]) + 0.4 * rng.normal(size=60)
        folds = np.array_split(np.arange(60), 5)
        for held in folds:
            train = np.setdiff1d(np.arange(60), held)
            kernels.append(_gram(x[train], gamma))
            targets.append(y[train])
        kernels.append(_gram(x, gamma))
        targets.append(y)
    assert len(kernels) == 96
    got = _solve_both(
        kernels, targets, c=64.0, epsilon=0.125, scalar=False,
        max_iter=50_000, on_no_convergence="ignore",
    )
    _pinned(got, "736f3568f7c0c48312aaf1332f8649d1e09b37383c56292dcf9666e60e07a489")


@pytest.mark.parametrize(
    "width, want",
    [
        (2, "af9eedfd627126392ddac6466b9cc9ad25ee8d7ba8a579c3c47800e842223a4f"),
        (3, "cda5c33f16f31ff6c34fed66e401eeaab0e7d4d9e7ddb5c9abb895fa908ac120"),
        (4, "90c5d181bc8edf63c7d2a7e35ba84a8f594d4289db4c53ee53c6e597cb30f5da"),
        (5, "3ebb7d09e7fd52fca00ac70372eff84299d37fe12caa76cc066260fdea73b1df"),
        (8, "29bd7435a6a0cbf2d48648114c99df12f70c0cbc207c87ef9625fe9ab8bfe66a"),
        (9, "3d1011946c456e466dcc675e99be7931c95d21eecc9cbe8d2fde5f1fe63bf0bc"),
        (10, "fe83306f8ba47418719db7601da0faceb43979d66d3f53443a820cec714500ae"),
    ],
)
def test_ragged_widths_pinned(width, want):
    """Ragged sizes (padding in the batch) at widths around the hand-off."""
    rng = np.random.default_rng(100 + width)
    sizes = [int(n) for n in rng.integers(8, 30, size=width)]
    problems = [_problem(rng, n, gamma=0.5) for n in sizes]
    got = _solve_both(
        [k for k, _ in problems], [y for _, y in problems],
        c=32.0, epsilon=0.1, max_iter=50_000, on_no_convergence="ignore",
    )
    _pinned(got, want)


def test_per_problem_c_and_epsilon_pinned():
    """A grid-search batch: every problem has its own (C, ε)."""
    rng = np.random.default_rng(7)
    base = [_problem(rng, n, gamma=0.4) for n in (22, 27, 30)]
    kernels, targets, cs, eps = [], [], [], []
    for c in (0.5, 128.0, 4096.0):
        for e in (0.01, 0.125, 0.5):
            for k, y in base:
                kernels.append(k)
                targets.append(y)
                cs.append(c)
                eps.append(e)
    got = _solve_both(
        kernels, targets, c=np.array(cs), epsilon=np.array(eps),
        max_iter=20_000, on_no_convergence="ignore",
    )
    _pinned(got, "1fbcf516eb6863763bbc40ea4f35c9a30091ba3c08f561ad3d71a5034b5b9cec")


def test_degenerate_problems_pinned():
    """n = 0 and n = 1 problems and an ε tube wider than the targets."""
    rng = np.random.default_rng(3)
    wide_k, wide_y = _problem(rng, 20)
    wide_y = 40.0 + 0.5 * (wide_y - wide_y.min()) / np.ptp(wide_y)
    one_k, one_y = _problem(rng, 1)
    normal = [_problem(rng, n) for n in (24, 29, 18, 26, 21)]
    kernels = [np.zeros((0, 0)), wide_k, one_k] + [k for k, _ in normal]
    targets = [np.zeros(0), wide_y, one_y] + [y for _, y in normal]
    eps = [0.1, 5.0, 0.1] + [0.1] * len(normal)
    got = _solve_both(
        kernels, targets, c=16.0, epsilon=np.array(eps),
        max_iter=50_000, on_no_convergence="ignore",
    )
    _pinned(got, "9b42f892afdd3c28afa6a2fe453da014d12fb7f9682ae1a1a397997f27339aa0")
    batch = solve_svr_dual_batch(kernels[1:2], targets[1:2], c=16.0, epsilon=5.0)
    assert not batch[0].beta.any()


def test_budget_exhaustion_pinned():
    """Every problem stops on ``max_iter``, some inside the lockstep."""
    rng = np.random.default_rng(5)
    problems = [_problem(rng, n, gamma=1.0) for n in (30, 34, 27, 33, 31, 29, 35, 28, 32, 26)]
    got = _solve_both(
        [k for k, _ in problems], [y for _, y in problems],
        c=4096.0, epsilon=0.001, max_iter=60, on_no_convergence="ignore",
    )
    _pinned(got, "f7fa3b5b42b90c25ab1e462ac9d061b1dcd50f974220b36f10c079aa7f00c4ad")
    batch = solve_svr_dual_batch(
        [k for k, _ in problems], [y for _, y in problems],
        c=4096.0, epsilon=0.001, max_iter=60, on_no_convergence="ignore",
    )
    assert all(r.iterations == 60 and not r.converged for r in batch)
