"""Unit tests for k-fold cross-validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import RngStream
from repro.svm.cv import KFold, cross_val_mse
from repro.svm.ridge import KernelRidge


class TestKFold:
    def test_every_sample_validated_exactly_once(self):
        splitter = KFold(n_splits=4)
        seen = []
        for _train, val in splitter.split(22):
            seen.extend(val.tolist())
        assert sorted(seen) == list(range(22))

    def test_fold_sizes_differ_by_at_most_one(self):
        sizes = [len(val) for _t, val in KFold(n_splits=4).split(22)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 22

    def test_train_and_validation_disjoint(self):
        for train, val in KFold(n_splits=5).split(30):
            assert set(train.tolist()).isdisjoint(val.tolist())
            assert len(train) + len(val) == 30

    def test_shuffled_split_deterministic_for_stream(self):
        a = [val.tolist() for _t, val in KFold(4, rng=RngStream(1, "cv")).split(20)]
        b = [val.tolist() for _t, val in KFold(4, rng=RngStream(1, "cv")).split(20)]
        assert a == b

    def test_shuffled_split_differs_from_identity(self):
        identity = [val.tolist() for _t, val in KFold(4).split(20)]
        shuffled = [val.tolist() for _t, val in KFold(4, rng=RngStream(2, "cv")).split(20)]
        assert identity != shuffled

    def test_rejects_fewer_samples_than_folds(self):
        with pytest.raises(ConfigurationError):
            list(KFold(n_splits=10).split(5))

    def test_rejects_single_fold(self):
        with pytest.raises(ConfigurationError):
            KFold(n_splits=1)


class TestCrossValMse:
    def test_perfectly_learnable_function_scores_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(40, 2))
        y = x[:, 0] + 2.0 * x[:, 1]
        mse = cross_val_mse(KernelRidge(alpha=1e-6), x, y, n_splits=5)
        assert mse < 0.01

    def test_noise_floor_respected(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = x[:, 0] + rng.normal(0, 0.5, size=60)
        mse = cross_val_mse(KernelRidge(alpha=0.1), x, y, n_splits=5)
        assert mse > 0.1  # cannot beat the noise

    def test_model_argument_not_mutated(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(30, 2))
        y = x[:, 0]
        model = KernelRidge(alpha=0.01)
        cross_val_mse(model, x, y, n_splits=5)
        # The original must remain unfitted (clones were used).
        with pytest.raises(Exception):
            model.predict(x[:1])

