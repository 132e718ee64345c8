"""Tests for the micro-batching request-queue front-end.

Covers the tentpole contracts: latency-budget batching under an injected
virtual clock, the signature-keyed result cache (bitwise hit parity,
generation invalidation, LRU eviction), snapshot-atomic dispatch across
mid-queue swap/promote, answered-exactly-once, and the ledger scorecard.
"""

import numpy as np
import pytest

from repro.core.stable import StableTemperaturePredictor
from repro.errors import ConfigurationError, ServingError
from repro.serving.frontend import (
    FrontendConfig,
    PredictionFrontend,
    ServiceCostModel,
    VirtualClock,
    serve_naive,
    serve_trace,
)
from repro.serving.ledger import BatchRecord, ServingLedger
from repro.serving.registry import ModelRegistry
from repro.serving.traces import RequestTrace
from tests.conftest import make_record


def _fit(seed: float) -> StableTemperaturePredictor:
    records = [
        make_record(
            psi=35.0 + seed + 2.0 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i
        )
        for i in range(12)
    ]
    return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(records)


@pytest.fixture(scope="module")
def predictors():
    return {"default": _fit(0.0), "hot-aisle": _fit(8.0), "retrained": _fit(15.0)}


@pytest.fixture()
def registry(predictors):
    reg = ModelRegistry()
    reg.register("default", predictors["default"])
    reg.register("hot-aisle", predictors["hot-aisle"])
    return reg


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(3.5).now_s == 3.5

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        assert clock.advance(1.25) == 1.25
        assert clock.advance_to(4.0) == 4.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="forward"):
            VirtualClock().advance(-0.1)

    def test_advance_to_rejects_rewind(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ConfigurationError, match="rewind"):
            clock.advance_to(9.0)

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ConfigurationError, match="finite"):
            VirtualClock(float("nan"))


class TestConfigValidation:
    def test_max_batch_floor(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            FrontendConfig(max_batch=0)

    def test_max_wait_floor(self):
        with pytest.raises(ConfigurationError, match="max_wait_s"):
            FrontendConfig(max_wait_s=-1e-3)

    def test_cache_capacity_floor(self):
        with pytest.raises(ConfigurationError, match="cache_capacity"):
            FrontendConfig(cache_capacity=0)

    def test_cost_model_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="dispatch_overhead_s"):
            ServiceCostModel(dispatch_overhead_s=-1.0)

    def test_cost_model_batch_service(self):
        costs = ServiceCostModel(
            dispatch_overhead_s=1.0, compute_per_record_s=0.1, lookup_per_hit_s=0.01
        )
        assert costs.batch_service_s(3, 2) == pytest.approx(1.32)
        with pytest.raises(ConfigurationError, match="counts"):
            costs.batch_service_s(-1, 0)


class TestBatching:
    def test_submit_leaves_ticket_pending(self, registry):
        frontend = PredictionFrontend(registry)
        ticket = frontend.submit("default", make_record(psi=None))
        assert not ticket.done
        assert frontend.pending == 1
        with pytest.raises(ServingError, match="still queued"):
            ticket.psi_stable_c

    def test_flush_answers_with_exact_model_output(self, registry):
        frontend = PredictionFrontend(registry)
        record = make_record(psi=None, n_vms=4)
        ticket = frontend.submit("hot-aisle", record)
        assert frontend.flush() == 1
        expected = registry.resolve("hot-aisle").predict_records([record])[0]
        assert ticket.psi_stable_c == expected
        assert frontend.pending == 0

    def test_full_queue_dispatches_without_poll(self, registry):
        frontend = PredictionFrontend(registry, FrontendConfig(max_batch=4))
        tickets = [
            frontend.submit("default", make_record(psi=None, n_vms=2 + i))
            for i in range(4)
        ]
        assert all(t.done for t in tickets)
        assert frontend.ledger.n_batches == 1
        assert frontend.ledger.batches[0].size == 4

    def test_deadline_dispatch_is_stamped_at_the_deadline(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(max_batch=64, max_wait_s=0.02)
        )
        frontend.clock.advance_to(1.0)
        ticket = frontend.submit("default", make_record(psi=None))
        frontend.clock.advance_to(5.0)  # poll runs much later than the budget
        assert frontend.poll() == 1
        assert ticket.done
        request = frontend.ledger.requests[0]
        assert request.dispatch_s == pytest.approx(1.02)
        assert request.queue_wait_s == pytest.approx(0.02)

    def test_poll_before_deadline_drains_nothing(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(max_batch=64, max_wait_s=0.5)
        )
        frontend.submit("default", make_record(psi=None))
        frontend.clock.advance(0.25)
        assert frontend.poll() == 0
        assert frontend.pending == 1

    def test_deadline_cutoff_excludes_later_arrivals(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(max_batch=64, max_wait_s=0.02)
        )
        first = frontend.submit("default", make_record(psi=None, n_vms=2))
        frontend.clock.advance_to(0.05)  # already past first's deadline
        second = frontend.submit("default", make_record(psi=None, n_vms=3))
        frontend.clock.advance_to(0.10)  # past both deadlines
        assert frontend.poll() == 2
        batches = frontend.ledger.batches
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].dispatch_s == pytest.approx(0.02)
        assert batches[1].dispatch_s == pytest.approx(0.07)
        assert first.done and second.done

    def test_queue_wait_never_exceeds_budget(self, registry):
        config = FrontendConfig(max_batch=8, max_wait_s=0.02)
        frontend = PredictionFrontend(registry, config)
        for i in range(30):
            frontend.clock.advance(0.004)
            frontend.poll()
            frontend.submit("default", make_record(psi=None, n_vms=2 + i % 5))
        frontend.clock.advance(1.0)
        frontend.flush()
        waits = frontend.ledger.queue_waits_s()
        assert waits.shape == (30,)
        assert np.all(waits <= config.max_wait_s + 1e-12)

    def test_flush_chunks_remainder_by_max_batch(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(max_batch=4, max_wait_s=10.0)
        )
        for i in range(7):
            frontend.submit("default", make_record(psi=None, n_vms=2 + i))
        # 7 pending: submit auto-drained one full batch of 4 at the 4th
        # submit, flush takes the remaining 3.
        frontend.flush()
        assert [b.size for b in frontend.ledger.batches] == [4, 3]


class TestBatchParity:
    def test_batched_answers_bit_identical_to_point_calls(self, registry):
        frontend = PredictionFrontend(registry, FrontendConfig(max_batch=16))
        records = [
            make_record(psi=None, n_vms=2 + i % 6, util=0.2 + 0.04 * i)
            for i in range(10)
        ]
        keys = ["default", "hot-aisle"] * 5
        tickets = [frontend.submit(k, r) for k, r in zip(keys, records)]
        frontend.flush()
        answered = np.array([t.psi_stable_c for t in tickets])
        point = np.array(
            [
                registry.resolve(k).predict_records([r])[0]
                for k, r in zip(keys, records)
            ]
        )
        assert np.array_equal(answered, point)

    def test_serve_trace_matches_serve_naive_bitwise(self, registry):
        records = [
            make_record(psi=None, n_vms=2 + i % 4, util=0.25 + 0.05 * (i % 3))
            for i in range(12)
        ]
        trace = RequestTrace(
            name="manual",
            duration_s=1.0,
            arrivals_s=[0.05 * i for i in range(12)],
            keys=["default" if i % 3 else "hot-aisle" for i in range(12)],
            records=records,
        )
        frontend = PredictionFrontend(
            registry, FrontendConfig(max_batch=4, max_wait_s=0.08)
        )
        tickets = serve_trace(frontend, trace)
        naive_psi, naive_ledger = serve_naive(registry, trace)
        assert np.array_equal(
            np.array([t.psi_stable_c for t in tickets]), naive_psi
        )
        assert frontend.ledger.n_requests == naive_ledger.n_requests == 12
        # Micro-batching amortizes the dispatch overhead the naive path
        # pays per request — fewer batches, same answers.
        assert frontend.ledger.n_batches < naive_ledger.n_batches


class TestSignatureCache:
    def test_repeat_request_hits_cache_bitwise(self, registry):
        frontend = PredictionFrontend(registry)
        record = make_record(psi=None, n_vms=5)
        cold = frontend.submit("default", record)
        frontend.flush()
        warm = frontend.submit("default", record)
        frontend.flush()
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert warm.psi_stable_c == cold.psi_stable_c
        assert frontend.ledger.batches[1].unique_computed == 0

    def test_equal_value_different_object_still_hits(self, registry):
        frontend = PredictionFrontend(registry)
        cold = frontend.submit("default", make_record(psi=None, n_vms=5))
        frontend.flush()
        # A separately constructed record with identical Eq. (2) inputs
        # (different metadata/object identity) shares the signature.
        warm = frontend.submit("default", make_record(psi=55.0, n_vms=5))
        frontend.flush()
        assert warm.cache_hit is True
        assert warm.psi_stable_c == cold.psi_stable_c

    def test_in_batch_duplicates_computed_once(self, registry):
        frontend = PredictionFrontend(registry, FrontendConfig(max_batch=16))
        record = make_record(psi=None, n_vms=3)
        tickets = [frontend.submit("default", record) for _ in range(5)]
        frontend.flush()
        batch = frontend.ledger.batches[0]
        assert batch.size == 5
        assert batch.unique_computed == 1
        assert batch.cache_hits == 4
        values = {t.psi_stable_c for t in tickets}
        assert len(values) == 1
        assert [t.cache_hit for t in tickets] == [False, True, True, True, True]

    def test_same_record_different_model_misses(self, registry):
        frontend = PredictionFrontend(registry)
        record = make_record(psi=None, n_vms=4)
        first = frontend.submit("default", record)
        frontend.flush()
        second = frontend.submit("hot-aisle", record)
        frontend.flush()
        assert second.cache_hit is False
        assert second.psi_stable_c != first.psi_stable_c

    def test_cache_disabled_recomputes_across_batches(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(cache_enabled=False)
        )
        record = make_record(psi=None, n_vms=4)
        cold = frontend.submit("default", record)
        frontend.flush()
        warm = frontend.submit("default", record)
        frontend.flush()
        assert warm.cache_hit is False
        assert warm.psi_stable_c == cold.psi_stable_c  # still deterministic
        assert frontend.cache_size == 0
        assert all(b.unique_computed == 1 for b in frontend.ledger.batches)

    def test_lru_eviction_at_capacity(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(cache_capacity=2)
        )
        records = [make_record(psi=None, n_vms=n) for n in (2, 3, 4)]
        for record in records:
            frontend.submit("default", record)
            frontend.flush()
        assert frontend.cache_size == 2  # n_vms=2 evicted
        evicted = frontend.submit("default", records[0])
        kept = frontend.submit("default", records[2])
        frontend.flush()
        assert evicted.cache_hit is False
        assert kept.cache_hit is True

    def test_lru_touch_refreshes_recency(self, registry):
        frontend = PredictionFrontend(
            registry, FrontendConfig(cache_capacity=2)
        )
        a, b, c = (make_record(psi=None, n_vms=n) for n in (2, 3, 4))
        for record in (a, b):
            frontend.submit("default", record)
            frontend.flush()
        frontend.submit("default", a)  # touch a: b becomes LRU
        frontend.flush()
        frontend.submit("default", c)  # evicts b
        frontend.flush()
        hit_a = frontend.submit("default", a)
        miss_b = frontend.submit("default", b)
        frontend.flush()
        assert hit_a.cache_hit is True
        assert miss_b.cache_hit is False


class TestRegistrySwapAtomicity:
    def test_swap_mid_drain_serves_pinned_snapshot_then_new_version(
        self, registry, predictors
    ):
        record = make_record(psi=None, n_vms=4)
        old_value = registry.resolve("default").predict_records([record])[0]

        def swap_during_drain(batch_index, batch):
            if batch_index == 0:
                registry.swap("default", predictors["retrained"])

        frontend = PredictionFrontend(registry, on_dispatch=swap_during_drain)
        in_flight = frontend.submit("default", record)
        frontend.flush()
        # The in-flight batch was pinned before the swap landed: it
        # completes on the pre-swap snapshot.
        assert in_flight.psi_stable_c == old_value
        assert registry.current_version("default") == 2

        # The next request resolves the new version — and must NOT be
        # served the superseded cached value.
        after = frontend.submit("default", record)
        frontend.flush()
        new_value = registry.resolve("default").predict_records([record])[0]
        assert after.cache_hit is False
        assert after.psi_stable_c == new_value
        assert after.psi_stable_c != old_value

    def test_swap_does_not_split_a_batch_across_versions(
        self, registry, predictors
    ):
        records = [make_record(psi=None, n_vms=2 + i) for i in range(6)]
        old_entry = registry.resolve("default")
        expected = old_entry.predict_records(records)

        def swap_during_drain(batch_index, batch):
            registry.swap("default", predictors["retrained"])

        frontend = PredictionFrontend(
            registry,
            FrontendConfig(max_batch=6),
            on_dispatch=swap_during_drain,
        )
        tickets = [frontend.submit("default", r) for r in records]
        assert np.array_equal(
            np.array([t.psi_stable_c for t in tickets]), expected
        )

    def test_promote_mid_queue_rebinds_alias_for_later_batches(
        self, registry, predictors
    ):
        registry.alias("web", "default")
        record = make_record(psi=None, n_vms=4)
        default_value = registry.resolve("default").predict_records([record])[0]

        def promote_during_drain(batch_index, batch):
            if batch_index == 0:
                registry.promote(
                    "web",
                    predictors["retrained"].svr,
                    scaler=predictors["retrained"].scaler,
                    extractor=predictors["retrained"].extractor,
                )

        frontend = PredictionFrontend(registry, on_dispatch=promote_during_drain)
        in_flight = frontend.submit("web", record)
        frontend.flush()
        assert in_flight.psi_stable_c == default_value  # pre-promote snapshot

        after = frontend.submit("web", record)
        frontend.flush()
        promoted_value = registry.resolve("web").predict_records([record])[0]
        assert after.cache_hit is False  # canonical key moved: new token
        assert after.psi_stable_c == promoted_value
        assert after.psi_stable_c != default_value


class TestInvariants:
    def test_every_request_answered_exactly_once(self, registry):
        frontend = PredictionFrontend(registry, FrontendConfig(max_batch=3))
        tickets = [
            frontend.submit("default", make_record(psi=None, n_vms=2 + i % 4))
            for i in range(10)
        ]
        frontend.flush()
        assert all(t.done for t in tickets)
        assert frontend.ledger.n_requests == 10
        assert sorted(r.request_id for r in frontend.ledger.requests) == list(
            range(10)
        )
        assert sum(b.size for b in frontend.ledger.batches) == 10

    def test_double_resolve_raises(self, registry):
        frontend = PredictionFrontend(registry)
        ticket = frontend.submit("default", make_record(psi=None))
        frontend.flush()
        with pytest.raises(ServingError, match="answered twice"):
            ticket._resolve(0.0, False)

    def test_unknown_key_without_default_raises(self):
        reg = ModelRegistry()
        reg.register("hot-aisle", _fit(8.0))
        frontend = PredictionFrontend(reg)
        frontend.submit("nope", make_record(psi=None))
        with pytest.raises(ServingError, match="unknown model key"):
            frontend.flush()


class TestLedger:
    def test_record_validation(self):
        ledger = ServingLedger()
        with pytest.raises(ServingError, match="before its arrival"):
            ledger.record_request(0, "k", 1.0, 0.5, 2.0, 0, 1, False)
        with pytest.raises(ServingError, match="before its dispatch"):
            ledger.record_request(0, "k", 1.0, 1.5, 1.2, 0, 1, False)
        with pytest.raises(ServingError, match="batch_size must be >= 1"):
            ledger.record_request(0, "k", 1.0, 1.5, 2.0, 0, 0, False)
        assert ledger.n_requests == 0  # rejected rows are not appended
        with pytest.raises(ServingError, match="double-counted"):
            BatchRecord(
                batch_index=0, dispatch_s=0.0, size=3,
                unique_computed=1, cache_hits=1, service_s=0.01,
            )

    def test_summary_scorecard(self, registry):
        costs = ServiceCostModel(
            dispatch_overhead_s=2e-3, compute_per_record_s=2.5e-4,
            lookup_per_hit_s=1e-5,
        )
        frontend = PredictionFrontend(
            registry,
            FrontendConfig(max_batch=4, max_wait_s=0.02),
            cost_model=costs,
        )
        record = make_record(psi=None, n_vms=3)
        for _ in range(8):
            frontend.submit("default", record)
        frontend.flush()
        summary = frontend.ledger.summary()
        assert summary["n_requests"] == 8.0
        assert summary["n_batches"] == 2.0
        assert summary["mean_batch_size"] == 4.0
        assert summary["unique_computed"] == 1.0
        assert summary["cache_hit_rate"] == pytest.approx(7 / 8)
        assert summary["p99_latency_s"] >= summary["p50_latency_s"] > 0.0
        assert frontend.ledger.percentile_latency_s(100.0) == pytest.approx(
            summary["max_latency_s"]
        )

    def test_empty_ledger_summary_and_percentile(self, registry):
        frontend = PredictionFrontend(registry)
        assert frontend.ledger.summary()["n_requests"] == 0.0
        with pytest.raises(ServingError, match="no requests"):
            frontend.ledger.percentile_latency_s(50.0)
        with pytest.raises(ServingError, match="percentile"):
            frontend.submit("default", make_record(psi=None))
            frontend.flush()
            frontend.ledger.percentile_latency_s(101.0)
