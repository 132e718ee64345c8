"""Ablation: calibration learning rate λ (the paper fixes λ = 0.8).

Sweeps λ from 0 (no calibration) to 1 (jump to last offset) on the
Fig. 1(b) scenario and reports dynamic MSE. The paper's 0.8 should sit in
the flat, good region of the curve; λ=0 must be clearly worst.
"""

from repro.config import PredictionConfig
from repro.experiments.figures import build_fig1b
from repro.experiments.reporting import ascii_table

from benchmarks.reporting import record_table

LAMBDAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_ablation_learning_rate(benchmark, stable_model):
    def run():
        scores = {}
        for lam in LAMBDAS:
            config = PredictionConfig(learning_rate=lam)
            result = build_fig1b(stable_model, seed=42, config=config)
            scores[lam] = result.mse_calibrated
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [(f"λ={lam:.1f}" + (" (paper)" if lam == 0.8 else ""), mse)
            for lam, mse in scores.items()]
    record_table(
        "Ablation: calibration learning rate",
        ascii_table(["learning rate", "dynamic MSE"], rows),
    )

    # λ=0 disables calibration: must be the worst.
    assert scores[0.0] == max(scores.values())
    # The paper's λ=0.8 must be within 15% of the best sweep point.
    best = min(scores.values())
    assert scores[0.8] <= 1.15 * best, (
        f"paper's λ=0.8 scored {scores[0.8]:.3f}, best {best:.3f}"
    )
    # Any calibration at all beats none by a real margin.
    assert min(scores[0.4], scores[0.6], scores[0.8]) < 0.9 * scores[0.0]
