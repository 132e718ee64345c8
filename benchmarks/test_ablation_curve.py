"""Ablation: pre-defined curve constants (t_break and curvature δ).

Eq. (1) fixes t_break = 600 s "deduced from experiments" and Eq. (3)'s
log curvature is reconstructed with δ = 0.05 (DESIGN.md §1). This
ablation sweeps both on the dynamic case study: the paper's operating
point should be near-optimal, and extreme values visibly worse —
evidence that the constants are load-bearing, not decorative.
"""

from repro.config import PredictionConfig
from repro.experiments.figures import build_fig1b
from repro.experiments.reporting import ascii_table

from benchmarks.reporting import record_table

T_BREAKS = (150.0, 300.0, 600.0, 1200.0)
DELTAS = (0.005, 0.02, 0.05, 0.2, 1.0)


def test_ablation_curve_constants(benchmark, stable_model):
    def run():
        t_break_scores = {}
        for t_break in T_BREAKS:
            config = PredictionConfig(t_break_s=t_break)
            t_break_scores[t_break] = build_fig1b(
                stable_model, seed=42, config=config
            ).mse_calibrated
        delta_scores = {}
        for delta in DELTAS:
            config = PredictionConfig(curve_delta=delta)
            delta_scores[delta] = build_fig1b(
                stable_model, seed=42, config=config
            ).mse_calibrated
        return t_break_scores, delta_scores

    t_break_scores, delta_scores = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [(f"t_break={t:.0f}s" + (" (paper)" if t == 600.0 else ""), mse)
            for t, mse in t_break_scores.items()]
    rows += [(f"delta={d:g}" + (" (ours)" if d == 0.05 else ""), mse)
             for d, mse in delta_scores.items()]
    record_table(
        "Ablation: curve constants (dynamic MSE, Fig 1(b) scenario)",
        ascii_table(["constant", "dynamic MSE"], rows),
    )

    # The paper's t_break=600 must be within 25% of the sweep's best.
    best_t = min(t_break_scores.values())
    assert t_break_scores[600.0] <= 1.25 * best_t
    # Our δ=0.05 reconstruction must likewise be near-optimal.
    best_d = min(delta_scores.values())
    assert delta_scores[0.05] <= 1.25 * best_d
    # All sweep points remain finite and positive.
    for value in list(t_break_scores.values()) + list(delta_scores.values()):
        assert 0.0 < value < 10.0
