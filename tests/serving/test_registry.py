"""Tests for the serving model registry."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.features import FeatureExtractor
from repro.core.stable import StableTemperaturePredictor
from repro.errors import NotFittedError, ServingError
from repro.serving.registry import DEFAULT_KEY, ModelRegistry
from tests.conftest import make_record


@pytest.fixture(scope="module")
def fitted_predictor():
    records = [
        make_record(psi=40.0 + 2.5 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i)
        for i in range(12)
    ]
    return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(records)


class TestRegistration:
    def test_register_and_resolve(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register("rack-a", fitted_predictor)
        assert registry.resolve("rack-a") is entry
        assert "rack-a" in registry
        assert len(registry) == 1

    def test_register_snapshots_fitted_components(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register("rack-a", fitted_predictor)
        # Snapshots, not references: the live predictor's objects stay
        # outside the registry, but predictions are bit-identical.
        assert entry.scaler is not fitted_predictor.scaler
        assert entry.model is not fitted_predictor.svr
        assert entry.extractor is not fitted_predictor.extractor
        records = [make_record(psi=None, n_vms=k) for k in (2, 4, 7)]
        assert np.array_equal(
            entry.predict_records(records), fitted_predictor.predict_many(records)
        )

    def test_register_copies_a_live_source_every_time(self, fitted_predictor):
        registry = ModelRegistry()
        a = registry.register("rack-a", fitted_predictor)
        b = registry.register_model(
            "rack-b",
            fitted_predictor.svr,
            scaler=fitted_predictor.scaler,
        )
        # The caller's live objects are not registry-owned, so each
        # registration freezes its own copy of them.
        assert b.scaler is not a.scaler
        assert b.model is not a.model
        assert b.scaler is not fitted_predictor.scaler
        assert b.model is not fitted_predictor.svr

    def test_unfitted_predictor_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(NotFittedError):
            registry.register("rack-a", StableTemperaturePredictor())

    def test_duplicate_key_rejected(self, fitted_predictor):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        with pytest.raises(ServingError, match="already registered"):
            registry.register("rack-a", fitted_predictor)

    def test_empty_key_rejected(self, fitted_predictor):
        registry = ModelRegistry()
        with pytest.raises(ServingError, match="non-empty"):
            registry.register("", fitted_predictor)


class TestSharedComponents:
    def test_register_model_shares_scaler(self, fitted_predictor):
        registry = ModelRegistry()
        base = registry.register("rack-a", fitted_predictor)
        other = registry.register_model(
            "rack-b",
            fitted_predictor.svr,
            scaler=base.scaler,
            extractor=FeatureExtractor(),
        )
        assert registry.resolve("rack-b").scaler is base.scaler
        assert other.scaler is base.scaler

    def test_alias_shares_whole_entry(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register("default", fitted_predictor)
        aliased = registry.alias("rack-c/16-core", "default")
        assert aliased is entry
        assert registry.resolve("rack-c/16-core") is entry

    def test_alias_of_unknown_key_raises(self, fitted_predictor):
        registry = ModelRegistry()
        with pytest.raises(ServingError, match="unknown model key"):
            registry.alias("rack-a", "missing")


class TestLookup:
    def test_unknown_key_without_default_raises(self, fitted_predictor):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        with pytest.raises(ServingError, match="no-such-key"):
            registry.resolve("no-such-key")

    def test_unknown_key_error_lists_known_keys(self, fitted_predictor):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        with pytest.raises(ServingError, match="rack-a"):
            registry.resolve("missing")

    def test_unknown_key_falls_back_to_default(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register(DEFAULT_KEY, fitted_predictor)
        assert registry.resolve("never-registered") is entry

    def test_keys_sorted(self, fitted_predictor):
        registry = ModelRegistry()
        registry.register("zeta", fitted_predictor)
        registry.alias("alpha", "zeta")
        assert registry.keys() == ["alpha", "zeta"]


def _refit_records():
    """A record set that trains a visibly different model."""
    return [
        make_record(psi=70.0 - 1.5 * i, n_vms=2 + (i * 5) % 7, util=0.9 - 0.06 * i)
        for i in range(12)
    ]


class TestMutationHazards:
    def test_refit_after_register_leaves_served_predictions_unchanged(self):
        records = [
            make_record(psi=40.0 + 2.5 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i)
            for i in range(12)
        ]
        predictor = StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1)
        predictor.fit(records)
        registry = ModelRegistry()
        registry.register("rack-a", predictor)
        probes = [make_record(psi=None, n_vms=k) for k in (2, 5, 9)]
        before = registry.resolve("rack-a").predict_records(probes)

        predictor.fit(_refit_records())  # in-place refit of the live object

        after = registry.resolve("rack-a").predict_records(probes)
        assert np.array_equal(before, after)
        # Sanity: the refit really changed the live predictor.
        assert not np.array_equal(before, predictor.predict_many(probes))

    def test_refit_after_register_model_leaves_entry_unchanged(self, fitted_predictor):
        registry = ModelRegistry()
        svr = fitted_predictor.svr
        entry = registry.register_model(
            "rack-a", svr, scaler=fitted_predictor.scaler
        )
        probes = [make_record(psi=None, n_vms=k) for k in (3, 6)]
        before = entry.predict_records(probes)
        extractor = FeatureExtractor()
        scaler = fitted_predictor.scaler
        x = scaler.transform(extractor.matrix(_refit_records()))
        y = extractor.targets(_refit_records())
        svr.fit(x, y)  # in-place refit of the registered SVR object
        assert np.array_equal(entry.predict_records(probes), before)


class TestSnapshotCacheFreshness:
    def test_refit_then_swap_publishes_the_refit_state(self):
        """The dedup cache must not return a stale snapshot when the
        SAME object is refit in place and then swapped back in."""
        records = [
            make_record(psi=40.0 + 2.5 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i)
            for i in range(12)
        ]
        predictor = StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1)
        predictor.fit(records)
        registry = ModelRegistry()
        registry.register("rack-a", predictor)
        probes = [make_record(psi=None, n_vms=k) for k in (2, 5, 9)]
        v1_predictions = registry.resolve("rack-a").predict_records(probes)

        predictor.fit(_refit_records())  # in-place refit of the live object
        registry.swap("rack-a", predictor)

        assert registry.current_version("rack-a") == 2
        v2_predictions = registry.resolve("rack-a").predict_records(probes)
        assert np.array_equal(
            v2_predictions, predictor.predict_many(probes)
        ), "swap published a stale snapshot instead of the refit state"
        assert not np.array_equal(v1_predictions, v2_predictions)


class TestCopyRule:
    """A component some entry holds is shared; anything else is copied."""

    def test_registry_owned_component_is_shared(self, fitted_predictor):
        registry = ModelRegistry()
        a = registry.register("rack-a", fitted_predictor)
        b = registry.register_model(
            "rack-b", a.model, scaler=a.scaler, extractor=a.extractor
        )
        assert b.extractor is a.extractor
        assert b.scaler is a.scaler
        assert b.model is a.model
        # Superseded versions still own their components.
        registry.swap_model("rack-a", copy.deepcopy(fitted_predictor.svr))
        c = registry.swap_model("rack-b", a.model)
        assert c.model is a.model

    def test_swap_sources_are_not_retained(self, fitted_predictor):
        """A long-running lifecycle swaps a fresh throwaway model every
        round; the registry keeps its copies, never the sources."""
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        sources = [copy.deepcopy(fitted_predictor.svr) for _ in range(5)]
        refs = [weakref.ref(source) for source in sources]
        for source in sources:
            registry.swap_model("rack-a", source)
        del sources, source
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert registry.current_version("rack-a") == 6

    def test_deepcopy_keeps_sharing_apart_from_original(self, fitted_predictor):
        registry = ModelRegistry()
        a = registry.register("rack-a", fitted_predictor)
        registry.register_model("rack-b", a.model, scaler=a.scaler)
        registry.alias("rack-c", "rack-a")
        clone = copy.deepcopy(registry)
        entry_a = clone.resolve("rack-a")
        entry_b = clone.resolve("rack-b")
        # Sharing structure survives the copy...
        assert entry_a.scaler is entry_b.scaler
        assert entry_a.model is entry_b.model
        assert clone.resolve("rack-c") is entry_a
        # ...no component is shared with the original...
        original = {
            id(c)
            for key in registry.keys()
            for e in registry.versions(key)
            for c in (e.extractor, e.scaler, e.model)
        }
        copied = {
            id(c)
            for key in clone.keys()
            for e in clone.versions(key)
            for c in (e.extractor, e.scaler, e.model)
        }
        assert not original & copied
        # ...and copy-owned components share as-is on swap.
        swapped = clone.swap_model("rack-a", entry_a.model)
        assert swapped.model is entry_a.model
        assert swapped.scaler is entry_a.scaler


class TestSerialization:
    def test_pickle_round_trip_preserves_registry(self, fitted_predictor):
        retrained = StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(
            _refit_records()
        )
        registry = ModelRegistry()
        base = registry.register(DEFAULT_KEY, fitted_predictor)
        registry.register_model("rack-a", retrained.svr, scaler=base.scaler)
        registry.swap_model("rack-a", fitted_predictor.svr)
        registry.alias("rack-b", "rack-a")
        registry.alias("rack-c", "rack-b")

        restored = pickle.loads(pickle.dumps(registry))

        assert restored.keys() == registry.keys()
        probes = [make_record(psi=None, n_vms=k) for k in (2, 5, 9)]
        for key in [*registry.keys(), "never-registered"]:
            assert restored.is_alias(key) == registry.is_alias(key)
            assert restored.canonical_key(key) == registry.canonical_key(key)
            assert restored.resolve(key).version == registry.resolve(key).version
        for key in registry.keys():
            before, after = registry.versions(key), restored.versions(key)
            assert [e.version for e in after] == [e.version for e in before]
            for old, new in zip(before, after):
                assert np.array_equal(
                    new.predict_records(probes), old.predict_records(probes)
                )
        # Sharing between entries survives the round trip.
        default = restored.resolve(DEFAULT_KEY)
        assert restored.resolve("rack-a").scaler is default.scaler


class TestSwapAndVersions:
    @pytest.fixture()
    def retrained(self):
        return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(
            _refit_records()
        )

    def test_swap_bumps_version_and_reresolves(self, fitted_predictor, retrained):
        registry = ModelRegistry()
        v1 = registry.register("rack-a", fitted_predictor)
        assert v1.version == 1
        v2 = registry.swap("rack-a", retrained)
        assert v2.version == 2
        assert registry.resolve("rack-a") is v2
        assert registry.current_version("rack-a") == 2
        assert [e.version for e in registry.versions("rack-a")] == [1, 2]

    def test_swap_keeps_shared_scaler_by_default(self, fitted_predictor):
        registry = ModelRegistry()
        v1 = registry.register("rack-a", fitted_predictor)
        v2 = registry.swap_model("rack-a", fitted_predictor.svr)
        assert v2.scaler is v1.scaler
        assert v2.extractor is v1.extractor

    def test_swap_unknown_key_raises(self, retrained):
        registry = ModelRegistry()
        with pytest.raises(ServingError, match="unregistered"):
            registry.swap("rack-a", retrained)

    def test_swap_alias_raises_naming_target(self, fitted_predictor, retrained):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        registry.alias("rack-b", "rack-a")
        with pytest.raises(ServingError, match="rack-a"):
            registry.swap("rack-b", retrained)

    def test_alias_then_swap_follows_new_version(self, fitted_predictor, retrained):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        registry.alias("rack-b", "rack-a")
        v2 = registry.swap("rack-a", retrained)
        assert registry.resolve("rack-b") is v2

    def test_swap_then_alias_sees_current_version(self, fitted_predictor, retrained):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        v2 = registry.swap("rack-a", retrained)
        entry = registry.alias("rack-b", "rack-a")
        assert entry is v2
        assert registry.resolve("rack-b") is v2

    def test_alias_chain_follows_through(self, fitted_predictor, retrained):
        registry = ModelRegistry()
        registry.register("rack-a", fitted_predictor)
        registry.alias("rack-b", "rack-a")
        registry.alias("rack-c", "rack-b")  # alias to an alias
        v2 = registry.swap("rack-a", retrained)
        assert registry.resolve("rack-c") is v2

    def test_superseded_entry_stays_functional_mid_batch(
        self, fitted_predictor, retrained
    ):
        registry = ModelRegistry()
        old = registry.register("rack-a", fitted_predictor)
        probes = [make_record(psi=None, n_vms=k) for k in (2, 5)]
        expected_old = old.predict_records(probes)
        registry.swap("rack-a", retrained)  # "mid-batch": old still in hand
        assert np.array_equal(old.predict_records(probes), expected_old)
        assert registry.resolve("rack-a") is not old
        assert not np.array_equal(
            registry.resolve("rack-a").predict_records(probes), expected_old
        )

    def test_versions_of_unknown_key_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ServingError, match="unknown model key"):
            registry.versions("missing")

    def test_unregistered_key_reports_default_history(self, fitted_predictor):
        registry = ModelRegistry()
        default = registry.register(DEFAULT_KEY, fitted_predictor)
        assert registry.resolve("never-registered") is default
        assert registry.current_version("never-registered") == 1
        assert registry.versions("never-registered") == [default]

    def test_unregistered_key_follows_default_swap(
        self, fitted_predictor, retrained
    ):
        registry = ModelRegistry()
        v1 = registry.register(DEFAULT_KEY, fitted_predictor)
        v2 = registry.swap(DEFAULT_KEY, retrained)
        assert registry.current_version("never-registered") == 2
        assert registry.versions("never-registered") == [v1, v2]


class TestEntryPrediction:
    def test_predict_records_matches_predictor(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register("default", fitted_predictor)
        records = [make_record(psi=None, n_vms=k) for k in (2, 5, 9)]
        batched = entry.predict_records(records)
        assert batched.shape == (3,)
        expected = fitted_predictor.predict_many(records)
        assert np.array_equal(batched, expected)

    def test_predict_records_empty(self, fitted_predictor):
        registry = ModelRegistry()
        entry = registry.register("default", fitted_predictor)
        assert entry.predict_records([]).shape == (0,)
