"""Unit tests for migration advice off a hot server.

Advice is the recipe ``examples/online_monitoring.py`` runs: enumerate
every feasible eviction with :func:`enumerate_evictions`, score them in
one batch with :meth:`WhatIfScorer.score_moves`, and take the move with
the lowest predicted peak of the two affected hosts.
"""

from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.management.whatif import WhatIfScorer, enumerate_evictions, record_for_host
from tests.conftest import make_server_spec, make_vm


DEMAND = FeatureExtractor().feature_names.index("nominal_demand_vcpus")


class CountingPredictor:
    """ψ = 45 + 2.5·(nominal demand column) — a transparent stand-in."""

    def predict_features(self, x):
        return 45.0 + 2.5 * x[:, DEMAND]


def cluster_with_hot_server():
    cluster = Cluster("adv")
    hot = Server(make_server_spec(name="hot"))
    for i in range(4):
        hot.host_vm(make_vm(f"busy-{i}", vcpus=4, level=0.9, n_tasks=4))
    cluster.add_server(hot)
    cluster.add_server(Server(make_server_spec(name="cool")))
    return cluster


def scored_evictions(cluster, source, predictor, environment_c=22.0):
    moves = enumerate_evictions(cluster, [source])
    return WhatIfScorer(predictor).score_moves(cluster, moves, environment_c)


def advise(cluster, source, predictor, environment_c=22.0):
    """The best-scored eviction off ``source``, or None without one."""
    scores = scored_evictions(cluster, source, predictor, environment_c)
    return min(scores, key=lambda score: score.predicted_peak_c, default=None)


class TestAdvice:
    def test_recommends_feasible_move(self):
        cluster = cluster_with_hot_server()
        advice = advise(cluster, "hot", CountingPredictor())
        assert advice.move.source == "hot"
        assert advice.move.destination == "cool"
        assert advice.move.vm_name.startswith("busy-")
        vm = cluster.server("hot").vms[advice.move.vm_name]
        assert cluster.server("cool").can_host(vm)

    def test_source_cools_below_threshold(self):
        cluster = cluster_with_hot_server()
        predictor = CountingPredictor()
        before = float(
            predictor.predict_features(
                FeatureExtractor().matrix([record_for_host(cluster.server("hot"), 22.0)])
            )[0]
        )
        advice = advise(cluster, "hot", predictor)
        assert advice.predicted_source_c <= 85.0
        assert advice.predicted_source_c < before

    def test_peak_is_max_of_both_sides(self):
        cluster = cluster_with_hot_server()
        scores = scored_evictions(cluster, "hot", CountingPredictor())
        assert len(scores) == 4
        for score in scores:
            assert score.predicted_peak_c == max(
                score.predicted_source_c, score.predicted_destination_c
            )

    def test_empty_server_rejected(self):
        cluster = cluster_with_hot_server()
        assert enumerate_evictions(cluster, ["cool"]) == []
        assert advise(cluster, "cool", CountingPredictor()) is None

    def test_no_destination_rejected(self):
        cluster = Cluster("lonely")
        hot = Server(make_server_spec(name="hot"))
        hot.host_vm(make_vm("only", vcpus=4))
        cluster.add_server(hot)
        assert enumerate_evictions(cluster, ["hot"]) == []
        assert advise(cluster, "hot", CountingPredictor()) is None

    def test_capacity_respected(self):
        cluster = cluster_with_hot_server()
        # Fill the cool server's memory so nothing fits.
        cluster.server("cool").host_vm(make_vm("filler", memory_gb=63.0))
        assert advise(cluster, "hot", CountingPredictor()) is None

    def test_works_with_trained_predictor(self, trained_predictor):
        cluster = cluster_with_hot_server()
        advice = advise(cluster, "hot", trained_predictor)
        assert advice.move.destination == "cool"
        # Moving a busy VM off must strictly cool the source prediction.
        before = trained_predictor.predict(record_for_host(cluster.server("hot"), 22.0))
        assert advice.predicted_source_c < before
