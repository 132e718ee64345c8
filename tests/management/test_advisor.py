"""Unit tests for the migration advisor."""

import pytest

from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.errors import SchedulingError
from repro.management.advisor import MigrationAdvisor
from tests.conftest import make_server_spec, make_vm


DEMAND = FeatureExtractor().feature_names.index("nominal_demand_vcpus")


class CountingPredictor:
    """ψ = 45 + 2.5·(nominal demand column) — a transparent stand-in."""

    def predict_features(self, x):
        # The advisor scores all candidates through the batched what-if
        # path; the stand-in mirrors the real predictor's feature API.
        return 45.0 + 2.5 * x[:, DEMAND]


def cluster_with_hot_server():
    cluster = Cluster("adv")
    hot = Server(make_server_spec(name="hot"))
    for i in range(4):
        hot.host_vm(make_vm(f"busy-{i}", vcpus=4, level=0.9, n_tasks=4))
    cluster.add_server(hot)
    cluster.add_server(Server(make_server_spec(name="cool")))
    return cluster


class TestAdvice:
    def test_recommends_feasible_move(self):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(CountingPredictor())
        advice = advisor.advise(cluster, "hot", threshold_c=85.0)
        assert advice.source == "hot"
        assert advice.destination == "cool"
        assert advice.vm_name.startswith("busy-")

    def test_source_cools_below_threshold(self):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(CountingPredictor())
        advice = advisor.advise(cluster, "hot", threshold_c=85.0)
        assert advice.predicted_source_c <= 85.0

    def test_peak_is_max_of_both_sides(self):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(CountingPredictor())
        advice = advisor.advise(cluster, "hot", threshold_c=85.0)
        assert advice.predicted_peak_c == max(
            advice.predicted_source_c, advice.predicted_destination_c
        )

    def test_empty_server_rejected(self):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(CountingPredictor())
        with pytest.raises(SchedulingError):
            advisor.advise(cluster, "cool")

    def test_impossible_threshold_rejected(self):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(CountingPredictor())
        with pytest.raises(SchedulingError):
            advisor.advise(cluster, "hot", threshold_c=30.0)

    def test_no_destination_rejected(self):
        cluster = Cluster("lonely")
        hot = Server(make_server_spec(name="hot"))
        hot.host_vm(make_vm("only", vcpus=4))
        cluster.add_server(hot)
        advisor = MigrationAdvisor(CountingPredictor())
        with pytest.raises(SchedulingError):
            advisor.advise(cluster, "hot")

    def test_capacity_respected(self):
        cluster = cluster_with_hot_server()
        # Fill the cool server's memory so nothing fits.
        cluster.server("cool").host_vm(make_vm("filler", memory_gb=63.0))
        advisor = MigrationAdvisor(CountingPredictor())
        with pytest.raises(SchedulingError):
            advisor.advise(cluster, "hot")

    def test_works_with_trained_predictor(self, trained_predictor):
        cluster = cluster_with_hot_server()
        advisor = MigrationAdvisor(trained_predictor, environment_c=22.0)
        advice = advisor.advise(cluster, "hot", threshold_c=90.0)
        assert advice.destination == "cool"
        # Moving a busy VM off must strictly cool the source prediction.
        before = trained_predictor.predict(
            __import__("repro.management.thermal_aware", fromlist=["record_for_host"])
            .record_for_host(cluster.server("hot"), 22.0)
        )
        assert advice.predicted_source_c < before
