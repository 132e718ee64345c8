"""Unit tests for the shared batched what-if path."""

import re

import pytest

from repro.core.features import FeatureExtractor
from repro.core.stable import StableTemperaturePredictor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.errors import ConfigurationError, SchedulingError
from repro.management.whatif import (
    CandidateMove,
    WhatIfScorer,
    enumerate_evictions,
    record_for_host,
)
from repro.serving import ModelRegistry
from tests.conftest import make_server_spec, make_vm


DEMAND = FeatureExtractor().feature_names.index("nominal_demand_vcpus")


class EchoPredictor:
    """Deterministic ψ = 40 + 3·(nominal demand column) stand-in."""

    def __init__(self):
        self.batch_calls = 0

    def predict(self, record):
        """Reference answer: the same formula over the record's features."""
        return 40.0 + 3.0 * FeatureExtractor().extract(record)[DEMAND]

    def predict_features(self, x):
        self.batch_calls += 1
        return 40.0 + 3.0 * x[:, DEMAND]


def cluster_of(n=3) -> Cluster:
    cluster = Cluster("whatif")
    for i in range(n):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    return cluster


class TestRecordForHost:
    def test_without_vm_drops_it(self):
        cluster = cluster_of(1)
        server = cluster.server("s0")
        server.host_vm(make_vm("keep"))
        server.host_vm(make_vm("drop"))
        record = record_for_host(server, 22.0, without_vm="drop")
        assert record.n_vms == 1
        assert record.metadata["hypothetical_removal"] == "drop"

    def test_without_unknown_vm_rejected(self):
        cluster = cluster_of(1)
        with pytest.raises(SchedulingError):
            record_for_host(cluster.server("s0"), 22.0, without_vm="ghost")

    def test_swap_combines_both(self):
        cluster = cluster_of(1)
        server = cluster.server("s0")
        server.host_vm(make_vm("old"))
        record = record_for_host(
            server, 22.0, extra_vm=make_vm("new"), without_vm="old"
        )
        assert record.n_vms == 1
        assert record.metadata["hypothetical"] is True


class TestEnumerateEvictions:
    def test_all_pairs_in_deterministic_order(self):
        cluster = cluster_of(3)
        cluster.server("s0").host_vm(make_vm("a"))
        cluster.server("s0").host_vm(make_vm("b"))
        moves = enumerate_evictions(cluster, ["s0"])
        assert [(m.vm_name, m.destination) for m in moves] == [
            ("a", "s1"), ("a", "s2"), ("b", "s1"), ("b", "s2"),
        ]

    def test_infeasible_destinations_skipped(self):
        cluster = cluster_of(2)
        cluster.server("s0").host_vm(make_vm("big", memory_gb=20.0))
        cluster.server("s1").host_vm(make_vm("filler", memory_gb=50.0))
        assert enumerate_evictions(cluster, ["s0"]) == []

    def test_destination_restriction(self):
        cluster = cluster_of(3)
        cluster.server("s0").host_vm(make_vm("a"))
        moves = enumerate_evictions(cluster, ["s0"], destinations=["s2"])
        assert [m.destination for m in moves] == ["s2"]

    def test_move_to_self_rejected(self):
        with pytest.raises(ConfigurationError):
            CandidateMove(vm_name="x", source="s0", destination="s0")


class TestWhatIfScorer:
    def test_needs_exactly_one_model_source(self):
        with pytest.raises(ConfigurationError):
            WhatIfScorer()
        with pytest.raises(ConfigurationError):
            WhatIfScorer(EchoPredictor(), registry=ModelRegistry())

    def test_scores_match_scalar_loop(self):
        cluster = cluster_of(3)
        cluster.server("s0").host_vm(make_vm("a", level=0.9))
        cluster.server("s0").host_vm(make_vm("b", level=0.4))
        cluster.server("s1").host_vm(make_vm("c", level=0.5))
        predictor = EchoPredictor()
        moves = enumerate_evictions(cluster, ["s0", "s1"])
        scores = WhatIfScorer(predictor).score_moves(cluster, moves, 22.0)
        assert predictor.batch_calls == 1
        for score in scores:
            move = score.move
            source = cluster.server(move.source)
            destination = cluster.server(move.destination)
            expected_source = predictor.predict(
                record_for_host(source, 22.0, without_vm=move.vm_name)
            )
            expected_dest = predictor.predict(
                record_for_host(
                    destination, 22.0, extra_vm=source.vms[move.vm_name]
                )
            )
            assert score.predicted_source_c == expected_source
            assert score.predicted_destination_c == expected_dest
            assert score.predicted_peak_c == max(expected_source, expected_dest)

    def test_batched_bitwise_equals_per_host_predict_many(self, trained_predictor):
        """The control-plane parity contract at unit scale: one batched
        call over deduped records == the per-host predict_many path."""
        cluster = cluster_of(4)
        for i, (vcpus, level) in enumerate([(4, 0.9), (2, 0.6), (1, 0.3)]):
            cluster.server("s0").host_vm(
                make_vm(f"vm-{i}", vcpus=vcpus, level=level, n_tasks=2)
            )
        cluster.server("s1").host_vm(make_vm("bg", level=0.5))
        moves = enumerate_evictions(cluster, ["s0"])
        scores = WhatIfScorer(trained_predictor).score_moves(cluster, moves, 22.0)
        for score in scores:
            move = score.move
            source = cluster.server(move.source)
            source_c = trained_predictor.predict_many(
                [record_for_host(source, 22.0, without_vm=move.vm_name)]
            )[0]
            dest_c = trained_predictor.predict_many(
                [
                    record_for_host(
                        cluster.server(move.destination),
                        22.0,
                        extra_vm=source.vms[move.vm_name],
                    )
                ]
            )[0]
            assert score.predicted_source_c == source_c  # bitwise
            assert score.predicted_destination_c == dest_c  # bitwise

    def test_registry_mode_uses_per_server_keys(self, trained_predictor):
        registry = ModelRegistry()
        registry.register("default", trained_predictor)
        cluster = cluster_of(2)
        cluster.server("s0").host_vm(make_vm("a", level=0.8))
        moves = enumerate_evictions(cluster, ["s0"])
        via_registry = WhatIfScorer(
            registry=registry, key_fn=lambda server: "no-such-class"
        ).score_moves(cluster, moves, 22.0)
        via_predictor = WhatIfScorer(trained_predictor).score_moves(
            cluster, moves, 22.0
        )
        for a, b in zip(via_registry, via_predictor):
            assert a.predicted_source_c == b.predicted_source_c
            assert a.predicted_destination_c == b.predicted_destination_c

    def test_registry_mode_scores_each_host_with_its_model(
        self, experiment_records, trained_predictor
    ):
        registry = ModelRegistry()
        registry.register("default", trained_predictor)
        registry.register(
            "odd",
            StableTemperaturePredictor(c=8.0, gamma=0.5, epsilon=0.25).fit(
                experiment_records
            ),
        )
        cluster = cluster_of(4)
        for i, name in enumerate(["s0", "s1", "s0", "s1"]):
            cluster.server(name).host_vm(
                make_vm(f"vm-{i}", vcpus=1 + i, level=0.3 + 0.15 * i)
            )

        def key_fn(server):
            return "odd" if server.name in ("s1", "s3") else "default"

        moves = enumerate_evictions(cluster, ["s0", "s1"])
        scores = WhatIfScorer(registry=registry, key_fn=key_fn).score_moves(
            cluster, moves, 22.0
        )
        for score in scores:
            move = score.move
            source = cluster.server(move.source)
            destination = cluster.server(move.destination)
            source_c = registry.resolve(key_fn(source)).predict_records(
                [record_for_host(source, 22.0, without_vm=move.vm_name)]
            )[0]
            dest_c = registry.resolve(key_fn(destination)).predict_records(
                [record_for_host(destination, 22.0, extra_vm=source.vms[move.vm_name])]
            )[0]
            assert score.predicted_source_c == source_c  # bitwise
            assert score.predicted_destination_c == dest_c  # bitwise

    def test_unknown_vm_rejected(self):
        cluster = cluster_of(2)
        cluster.server("s0").host_vm(make_vm("a"))
        move = CandidateMove(vm_name="ghost", source="s0", destination="s1")
        with pytest.raises(SchedulingError):
            WhatIfScorer(EchoPredictor()).score_moves(cluster, [move], 22.0)

    def test_empty_moves(self):
        assert WhatIfScorer(EchoPredictor()).score_moves(cluster_of(1), [], 22.0) == []

    def test_score_placements_matches_point_calls(self):
        cluster = cluster_of(3)
        cluster.server("s1").host_vm(make_vm("x", level=0.7))
        predictor = EchoPredictor()
        vm = make_vm("incoming", vcpus=2, level=0.5)
        scored = WhatIfScorer(predictor).score_placements(
            cluster.servers, vm, 22.0
        )
        expected = [
            predictor.predict(record_for_host(server, 22.0, extra_vm=vm))
            for server in cluster.servers
        ]
        assert scored.tolist() == expected

    @pytest.mark.parametrize("environment_c", [float("nan"), float("inf"), -float("inf")])
    def test_score_moves_rejects_non_finite_environment(self, environment_c):
        cluster = cluster_of(2)
        cluster.server("s0").host_vm(make_vm("a"))
        moves = enumerate_evictions(cluster, ["s0"])
        with pytest.raises(ConfigurationError, match=re.escape(repr(environment_c))):
            WhatIfScorer(EchoPredictor()).score_moves(cluster, moves, environment_c)

    @pytest.mark.parametrize("environment_c", [float("nan"), float("inf"), -float("inf")])
    def test_score_placements_rejects_non_finite_environment(self, environment_c):
        cluster = cluster_of(2)
        with pytest.raises(ConfigurationError, match=re.escape(repr(environment_c))):
            WhatIfScorer(EchoPredictor()).score_placements(
                cluster.servers, make_vm("incoming"), environment_c
            )

    def test_score_placements_needs_hosts_of_one_cluster(self):
        hosts = cluster_of(1).servers + cluster_of(1).servers
        with pytest.raises(ConfigurationError, match="one cluster"):
            WhatIfScorer(EchoPredictor()).score_placements(hosts, make_vm("x"), 22.0)
