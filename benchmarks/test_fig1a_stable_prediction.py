"""Benchmark: regenerate Fig. 1(a) — stable CPU temperature prediction.

Paper: "the model is capable of predicting stable CPU temperature with an
average Mean Squared Error (MSE) value within 1.10" over 20 randomized
experiment cases with 2–12 VMs.

Full pipeline: 150 randomized training experiments + 20 test cases are
simulated, the ε-SVR is grid-searched with 10-fold CV (easygrid-style),
and the 20 held-out cases are predicted.
"""

from repro.experiments.figures import build_fig1a
from repro.experiments.reporting import format_fig1a

from benchmarks.reporting import record_table


def test_fig1a_stable_prediction(benchmark):
    result = benchmark.pedantic(
        lambda: build_fig1a(n_train=150, n_test=20, n_folds=10, seed=7),
        rounds=1,
        iterations=1,
    )
    record_table("Fig 1(a) stable prediction", format_fig1a(result))

    # Paper shape: 20 cases, 2-12 VMs, average MSE within 1.10.
    assert len(result.cases) == 20
    assert all(2 <= case.n_vms <= 12 for case in result.cases)
    assert result.mse <= 1.10, (
        f"average stable-prediction MSE {result.mse:.3f} exceeds the "
        "paper's 1.10 band"
    )
    # Predictions must track, not merely average: every case within a few
    # degrees and the bulk much closer.
    errors = sorted(case.squared_error for case in result.cases)
    assert errors[len(errors) // 2] < 0.75  # median squared error
    assert max(errors) < 16.0  # no catastrophic outlier (4 °C)
