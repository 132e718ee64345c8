"""Ablation: kernel / estimator choice for the stable model.

The paper fixes LIBSVM's RBF kernel. This ablation compares RBF against
linear and polynomial kernels and kernel ridge regression on identical
features and data, using CV MSE — justifying (or not) the paper's choice.
"""

import numpy as np

from repro.core.features import FeatureExtractor
from repro.experiments.reporting import ascii_table
from repro.rng import RngFactory
from repro.svm.cv import cross_val_mse
from repro.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.svm.ridge import KernelRidge
from repro.svm.scaling import MinMaxScaler
from repro.svm.svr import EpsilonSVR

from benchmarks.reporting import record_table


def test_ablation_kernels(benchmark, labelled_records):
    extractor = FeatureExtractor()
    x = MinMaxScaler().fit_transform(extractor.matrix(labelled_records))
    y = extractor.targets(labelled_records)

    candidates = {
        "SVR rbf (paper)": EpsilonSVR(
            kernel=RbfKernel(gamma=0.02), c=4096.0, epsilon=0.125,
            on_no_convergence="ignore",
        ),
        "SVR linear": EpsilonSVR(
            kernel=LinearKernel(), c=64.0, epsilon=0.125,
            on_no_convergence="ignore",
        ),
        "SVR poly(3)": EpsilonSVR(
            kernel=PolynomialKernel(degree=3, gamma=0.1, coef0=1.0),
            c=512.0, epsilon=0.125, on_no_convergence="ignore",
        ),
        "kernel ridge rbf": KernelRidge(kernel=RbfKernel(gamma=0.02), alpha=1e-3),
    }

    def run():
        return {
            name: cross_val_mse(
                model, x, y, n_splits=5, rng=RngFactory(11).stream(f"cv/{name}")
            )
            for name, model in candidates.items()
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = sorted(scores.items(), key=lambda kv: kv[1])
    record_table(
        "Ablation: kernel and estimator choice (5-fold CV MSE)",
        ascii_table(["model", "CV MSE"], rows),
    )

    best = min(scores.values())
    # The paper's choice must be at (or statistically near) the front:
    # within 2× of the best candidate, and clearly ahead of linear.
    assert scores["SVR rbf (paper)"] <= 2.0 * best
    assert scores["SVR rbf (paper)"] < scores["SVR linear"]
    assert np.isfinite(list(scores.values())).all()
