"""Unit tests for the easygrid-style grid search."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.reporting import format_grid_search
from repro.rng import RngStream
from repro.svm.grid import grid_search_svr


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(50, 3))
    y = 2.0 * x[:, 0] + np.sin(3.0 * x[:, 1]) + 0.05 * rng.normal(size=50)
    return x, y


class TestGridSearch:
    def test_evaluates_every_grid_point(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        assert len(result.trials) == 4

    def test_best_point_minimizes_cv_mse(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        best_trial = min(result.trials, key=lambda t: t.cv_mse)
        assert result.best_cv_mse == pytest.approx(best_trial.cv_mse)
        assert (result.best_c, result.best_gamma, result.best_epsilon) == (
            best_trial.c, best_trial.gamma, best_trial.epsilon
        )

    def test_best_model_uses_winning_parameters(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(5.0,), gamma_grid=(0.5,), epsilon_grid=(0.2,), n_splits=5
        )
        model = result.best_model()
        assert model.c == 5.0
        assert model.epsilon == 0.2
        assert model.kernel.gamma == 0.5

    def test_deterministic_given_stream(self, data):
        x, y = data
        kwargs = dict(
            c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,), n_splits=5
        )
        a = grid_search_svr(x, y, rng=RngStream(9, "cv"), **kwargs)
        b = grid_search_svr(x, y, rng=RngStream(9, "cv"), **kwargs)
        assert a.best_cv_mse == b.best_cv_mse
        assert (a.best_c, a.best_gamma) == (b.best_c, b.best_gamma)

    def test_summary_mentions_parameters(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(5.0,), gamma_grid=(0.5,), epsilon_grid=(0.2,), n_splits=5
        )
        summary = result.summary()
        assert "C=5" in summary
        assert "gamma=0.5" in summary

    def test_rejects_empty_grid(self, data):
        x, y = data
        for name in ("c_grid", "gamma_grid", "epsilon_grid"):
            with pytest.raises(ConfigurationError, match=name):
                grid_search_svr(x, y, **{name: ()})

    @pytest.mark.parametrize("name", ["c_grid", "gamma_grid", "epsilon_grid"])
    def test_rejects_duplicate_grid_value(self, data, name):
        x, y = data
        with pytest.raises(ConfigurationError, match=name):
            grid_search_svr(x, y, **{name: (1.0, 1.0)})

    def test_trials_enumerate_in_c_major_order(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        assert [(t.c, t.gamma, t.epsilon) for t in result.trials] == [
            (1.0, 0.1, 0.1), (1.0, 1.0, 0.1), (10.0, 0.1, 0.1), (10.0, 1.0, 0.1)
        ]

    def test_to_rows_matches_trials(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0,), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        rows = result.to_rows()
        assert rows == [t.astuple() for t in result.trials]
        assert all(len(row) == 4 for row in rows)

    def test_format_grid_search_ranks_best_first_with_winner_line(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        lines = format_grid_search(result).splitlines()
        assert lines[0].split() == ["C", "gamma", "epsilon", "cv", "MSE"]
        rows = [[float(cell) for cell in line.split()] for line in lines[2:-1]]
        assert len(rows) == len(result.trials)
        cv_mses = [row[3] for row in rows]
        assert cv_mses == sorted(cv_mses)
        assert rows[0][:3] == [
            float(f"{v:.3f}")
            for v in (result.best_c, result.best_gamma, result.best_epsilon)
        ]
        assert lines[-1] == result.summary()

    def test_format_grid_search_top_truncates(self, data):
        x, y = data
        result = grid_search_svr(
            x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0), epsilon_grid=(0.1,),
            n_splits=5,
        )
        lines = format_grid_search(result, top=2).splitlines()
        assert len(lines) == 5  # header + rule + 2 rows + winner line
        assert lines[-1] == result.summary()


class TestGridSearchAcceleration:
    """Memory-capped chunking of the lockstep batch, in both fold modes."""

    def test_chunked_megabatch_bit_identical(self, data, monkeypatch):
        """Memory-capped chunking must not change a single bit, with shared
        folds (``rng=None``) or with per-point folds."""
        import repro.svm.grid as grid_mod

        x, y = data

        def search(rng_seed):
            rng = None if rng_seed is None else RngStream(rng_seed, "cv")
            return grid_search_svr(
                x, y, c_grid=(1.0, 10.0), gamma_grid=(0.1, 1.0),
                epsilon_grid=(0.1,), n_splits=5, rng=rng,
            )

        for rng_seed in (None, 3):
            with monkeypatch.context() as patch:
                serial = search(rng_seed)
                patch.setattr(grid_mod, "_MAX_BATCH_ELEMENTS", 2000)
                chunked = search(rng_seed)  # every chunk is a single problem
            assert [t.astuple() for t in chunked.trials] == [
                t.astuple() for t in serial.trials
            ]
