"""Benchmark: the paper's SVR vs prior-art baselines.

The paper's motivation (§I): task-temperature profiles [4] and RC circuit
models [5] "are unable to capture task resource heterogeneity within
multi-tenant environments". This benchmark quantifies that claim on the
same heterogeneous dataset: the VM-level SVR must beat both baselines by
a wide margin.
"""

from repro.core.baselines import RcFitBaseline, TaskProfileBaseline
from repro.core.pipeline import train_stable_predictor
from repro.experiments.reporting import ascii_table
from repro.rng import RngFactory

from benchmarks.reporting import record_table


def test_baseline_comparison(benchmark, labelled_records, heldout_records):
    def run():
        svr_report = train_stable_predictor(
            labelled_records,
            n_splits=5,
            c_grid=(64.0, 512.0, 4096.0),
            gamma_grid=(0.004, 0.02, 0.1),
            epsilon_grid=(0.125,),
            rng=RngFactory(3).stream("cv"),
        )
        task_profile = TaskProfileBaseline().fit(labelled_records)
        rc_fit = RcFitBaseline().fit(labelled_records)
        return {
            "SVR (paper, VM-level)": svr_report.predictor.evaluate(heldout_records),
            "Task profiles [4]": task_profile.evaluate(heldout_records),
            "RC circuit fit [5]": rc_fit.evaluate(heldout_records),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (name, m["mse"], m["rmse"], m["mae"], m["r2"])
        for name, m in results.items()
    ]
    record_table(
        "Baseline comparison (held-out records)",
        ascii_table(["model", "MSE", "RMSE", "MAE", "R2"], rows)
        + "\npaper claim: traditional approaches cannot capture multi-tenant "
        "heterogeneity",
    )

    svr = results["SVR (paper, VM-level)"]["mse"]
    profile = results["Task profiles [4]"]["mse"]
    rc = results["RC circuit fit [5]"]["mse"]
    # Paper shape: the VM-level model wins decisively against both.
    assert svr < profile / 10.0, f"SVR {svr:.2f} vs task profiles {profile:.2f}"
    assert svr < rc / 5.0, f"SVR {svr:.2f} vs RC fit {rc:.2f}"
    # And the baselines are still sane models (not strawmen): both beat a
    # wild guess and the RC fit captures the load trend.
    assert results["RC circuit fit [5]"]["r2"] > 0.3
