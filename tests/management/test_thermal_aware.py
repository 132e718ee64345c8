"""Unit tests for prediction-driven placement."""

import pytest

from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.errors import SchedulingError
from repro.management.hotspot import HotspotDetector
from repro.management.thermal_aware import ThermalAwareScheduler, record_for_host
from tests.conftest import make_server_spec, make_vm


N_VMS = FeatureExtractor().feature_names.index("n_vms")


class FakePredictor:
    """Deterministic stand-in scoring hosts by their VM count.

    Implements the batched ``predict_features`` the scheduler uses (one
    call per placement instead of one per host); ``queries`` keeps each
    scored feature row.
    """

    def __init__(self, base=50.0, per_vm=5.0):
        self.base = base
        self.per_vm = per_vm
        self.queries = []
        self.batch_calls = 0

    def predict_features(self, x):
        self.batch_calls += 1
        self.queries.extend(x)
        return self.base + self.per_vm * x[:, N_VMS]


def small_cluster(n=3) -> Cluster:
    cluster = Cluster("ta")
    for i in range(n):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    return cluster


class TestRecordForHost:
    def test_describes_current_vms(self):
        cluster = small_cluster(1)
        server = cluster.server("s0")
        server.host_vm(make_vm("a", vcpus=2))
        record = record_for_host(server, environment_c=23.0)
        assert record.n_vms == 1
        assert record.delta_env_c == 23.0
        assert record.theta_fan_count == server.fans.count

    def test_hypothetical_vm_included(self):
        cluster = small_cluster(1)
        server = cluster.server("s0")
        server.host_vm(make_vm("a"))
        record = record_for_host(server, 22.0, extra_vm=make_vm("incoming"))
        assert record.n_vms == 2
        assert record.metadata["hypothetical"] is True


class TestPlacement:
    def test_picks_coolest_predicted_host(self):
        cluster = small_cluster()
        cluster.server("s0").host_vm(make_vm("x"))
        cluster.server("s0").host_vm(make_vm("y"))
        cluster.server("s1").host_vm(make_vm("z"))
        scheduler = ThermalAwareScheduler(FakePredictor())
        chosen = scheduler.place(make_vm("new"), cluster)
        assert chosen.name == "s2"  # empty host → lowest predicted ψ

    def test_decision_logged(self):
        cluster = small_cluster()
        scheduler = ThermalAwareScheduler(FakePredictor())
        scheduler.place(make_vm("new"), cluster)
        assert len(scheduler.decision_log) == 1
        decision = scheduler.decision_log[0]
        assert decision.vm_name == "new"
        assert decision.predicted_c == pytest.approx(55.0)
        assert decision.degraded is False
        assert scheduler.last_decision is decision

    def test_one_batched_call_per_placement(self):
        cluster = small_cluster(3)
        predictor = FakePredictor()
        scheduler = ThermalAwareScheduler(predictor)
        scheduler.place(make_vm("new"), cluster)
        assert predictor.batch_calls == 1
        assert len(predictor.queries) == 3  # all candidates scored in the batch

    def test_predictions_are_post_placement(self):
        cluster = small_cluster(1)
        predictor = FakePredictor()
        ThermalAwareScheduler(predictor).place(make_vm("new"), cluster)
        # The hypothetical record includes the incoming VM.
        assert predictor.queries[0][N_VMS] == 1

    def test_skips_hosts_predicted_to_overheat(self):
        cluster = small_cluster(2)
        cluster.server("s0").host_vm(make_vm("a"))  # cooler... but:
        predictor = FakePredictor(base=74.0, per_vm=2.0)
        # s0 with new VM: 74+4=78 (overheats); s1 with new VM: 76 (overheats).
        # With threshold 77: only s1 is acceptable.
        scheduler = ThermalAwareScheduler(
            predictor, detector=HotspotDetector(threshold_c=77.0)
        )
        chosen = scheduler.place(make_vm("new"), cluster)
        assert chosen.name == "s1"

    def test_degrades_gracefully_when_all_overheat(self):
        cluster = small_cluster(2)
        predictor = FakePredictor(base=90.0)
        scheduler = ThermalAwareScheduler(
            predictor, detector=HotspotDetector(threshold_c=75.0)
        )
        chosen = scheduler.place(make_vm("new"), cluster)
        assert chosen.name in {"s0", "s1"}
        # The fallback is loud: the decision is flagged as degraded.
        assert scheduler.last_decision.degraded is True
        assert scheduler.last_decision.server_name == chosen.name

    def test_degraded_flag_clear_when_detector_accepts(self):
        cluster = small_cluster(2)
        scheduler = ThermalAwareScheduler(
            FakePredictor(), detector=HotspotDetector(threshold_c=75.0)
        )
        scheduler.place(make_vm("new"), cluster)
        assert scheduler.last_decision.degraded is False

    def test_last_decision_before_any_placement_raises(self):
        scheduler = ThermalAwareScheduler(FakePredictor())
        with pytest.raises(SchedulingError):
            scheduler.last_decision

    def test_respects_capacity(self):
        cluster = small_cluster(2)
        cluster.server("s0").host_vm(make_vm("big", memory_gb=62.0))
        scheduler = ThermalAwareScheduler(FakePredictor())
        chosen = scheduler.place(make_vm("new", memory_gb=8.0), cluster)
        assert chosen.name == "s1"

    def test_no_feasible_host_rejected(self):
        cluster = small_cluster(1)
        cluster.server("s0").host_vm(make_vm("big", memory_gb=62.0))
        scheduler = ThermalAwareScheduler(FakePredictor())
        with pytest.raises(SchedulingError):
            scheduler.place(make_vm("new", memory_gb=8.0), cluster)

    def test_works_with_trained_predictor(self, trained_predictor):
        cluster = small_cluster()
        cluster.server("s0").host_vm(make_vm("w1", vcpus=8, level=0.9, n_tasks=8))
        cluster.server("s0").host_vm(make_vm("w2", vcpus=8, level=0.9, n_tasks=8))
        scheduler = ThermalAwareScheduler(trained_predictor, environment_c=22.0)
        chosen = scheduler.place(make_vm("new"), cluster)
        # The loaded host must not be chosen.
        assert chosen.name != "s0"
