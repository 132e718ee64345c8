"""Unit tests for the mitigation policies (plan stage)."""

import numpy as np
import pytest

from repro.control.policies import (
    ControlView,
    EnergyAwareConsolidationPolicy,
    ProactiveForecastPolicy,
    ReactiveEvictionPolicy,
)
from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.errors import ConfigurationError
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import WhatIfScorer
from repro.serving.fleet import ForecastSnapshot
from tests.conftest import make_server_spec, make_vm


DEMAND = FeatureExtractor().feature_names.index("nominal_demand_vcpus")


class EchoPredictor:
    """ψ = 40 + 3·(nominal demand column): transparent, monotone in hosted load."""

    def predict_features(self, x):
        return 40.0 + 3.0 * x[:, DEMAND]


def snapshot_for(cluster, predicted: dict[str, float]) -> ForecastSnapshot:
    names = tuple(server.name for server in cluster.servers)
    values = np.array([predicted.get(name, 45.0) for name in names])
    return ForecastSnapshot(
        names=names,
        target_times_s=np.full(len(names), 60.0),
        predicted_c=values,
        gamma=np.zeros(len(names)),
        has_forecast=np.ones(len(names), dtype=bool),
    )


def view_for(cluster, measured: dict[str, float], predicted: dict[str, float] | None = None,
             threshold_c: float = 75.0) -> ControlView:
    full_measured = {
        server.name: measured.get(server.name, 45.0)
        for server in cluster.servers
    }
    return ControlView(
        time_s=600.0,
        cluster=cluster,
        snapshot=snapshot_for(cluster, predicted or {}),
        measured_c=full_measured,
        detector=HotspotDetector(threshold_c=threshold_c),
        scorer=WhatIfScorer(EchoPredictor()),
        environment_c=22.0,
    )


def loaded_cluster(n=4, hot=("s0",), vms_per_hot=3) -> Cluster:
    cluster = Cluster("ctl")
    for i in range(n):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    for name in hot:
        for j in range(vms_per_hot):
            cluster.server(name).host_vm(
                make_vm(f"{name}-vm{j}", vcpus=4, level=0.8, n_tasks=2)
            )
    return cluster


class TestReactiveEviction:
    def test_plans_eviction_for_measured_hotspot(self):
        cluster = loaded_cluster()
        view = view_for(cluster, {"s0": 82.0})
        planned = ReactiveEvictionPolicy().plan(view)
        assert len(planned) == 1
        assert planned[0].move.source == "s0"
        assert planned[0].move.destination in {"s1", "s2", "s3"}

    def test_quiet_fleet_plans_nothing(self):
        cluster = loaded_cluster()
        view = view_for(cluster, {"s0": 70.0})
        assert ReactiveEvictionPolicy().plan(view) == []

    def test_ignores_forecast_hotspots(self):
        # Reactive is the no-prediction baseline: a hot *forecast* with a
        # cool sensor does not trigger it.
        cluster = loaded_cluster()
        view = view_for(cluster, {"s0": 70.0}, predicted={"s0": 85.0})
        assert ReactiveEvictionPolicy().plan(view) == []

    def test_destinations_diversified_across_sources(self):
        cluster = loaded_cluster(n=4, hot=("s0", "s1"), vms_per_hot=2)
        view = view_for(cluster, {"s0": 84.0, "s1": 82.0})
        planned = ReactiveEvictionPolicy().plan(view)
        destinations = [score.move.destination for score in planned]
        assert len(planned) == 2
        assert len(set(destinations)) == 2  # not both onto the coolest

    def test_hotter_source_planned_first(self):
        cluster = loaded_cluster(n=4, hot=("s0", "s1"), vms_per_hot=2)
        view = view_for(cluster, {"s0": 80.0, "s1": 88.0})
        planned = ReactiveEvictionPolicy().plan(view)
        assert [score.move.source for score in planned] == ["s1", "s0"]

    def test_unsafe_destinations_rejected(self):
        # Only one other server, and it would overheat with the VM on it.
        cluster = Cluster("tight")
        cluster.add_server(Server(make_server_spec(name="hot")))
        cluster.add_server(Server(make_server_spec(name="warm")))
        cluster.server("hot").host_vm(make_vm("v", vcpus=8, level=0.9, n_tasks=4))
        for j in range(3):
            cluster.server("warm").host_vm(
                make_vm(f"w{j}", vcpus=4, level=0.9, n_tasks=4)
            )
        view = view_for(cluster, {"hot": 82.0}, threshold_c=75.0)
        assert ReactiveEvictionPolicy().plan(view) == []

    def test_rejects_negative_margin(self):
        with pytest.raises(ConfigurationError):
            ReactiveEvictionPolicy(margin_c=-1.0)


class TestProactiveForecast:
    def test_acts_on_forecast_before_sensor_crosses(self):
        cluster = loaded_cluster()
        view = view_for(cluster, {"s0": 72.0}, predicted={"s0": 76.0})
        planned = ProactiveForecastPolicy(margin_c=2.0).plan(view)
        assert len(planned) == 1
        assert planned[0].move.source == "s0"

    def test_margin_widens_the_trigger(self):
        cluster = loaded_cluster()
        view = view_for(cluster, {"s0": 70.0}, predicted={"s0": 74.0})
        assert ProactiveForecastPolicy(margin_c=0.0).plan(view) == []
        assert len(ProactiveForecastPolicy(margin_c=2.0).plan(view)) == 1

    def test_hottest_forecast_first(self):
        cluster = loaded_cluster(n=5, hot=("s0", "s1"), vms_per_hot=2)
        view = view_for(
            cluster, {}, predicted={"s0": 78.0, "s1": 84.0}
        )
        planned = ProactiveForecastPolicy().plan(view)
        assert [score.move.source for score in planned] == ["s1", "s0"]


class TestConsolidation:
    def light_fleet(self, n=4):
        cluster = Cluster("calm")
        for i in range(n):
            cluster.add_server(Server(make_server_spec(name=f"s{i}")))
            cluster.server(f"s{i}").host_vm(
                make_vm(f"light-{i}", vcpus=2, level=0.2)
            )
        return cluster

    def test_drains_uphill_on_calm_fleet(self):
        cluster = self.light_fleet()
        # s0 coolest → drains; receivers are warmer/later in the order.
        view = view_for(
            cluster, {"s0": 46.0, "s1": 48.0, "s2": 50.0, "s3": 52.0}
        )
        planned = EnergyAwareConsolidationPolicy().plan(view)
        assert planned
        first = planned[0]
        assert first.move.source == "s0"
        assert first.move.destination != "s0"
        sources = {score.move.source for score in planned}
        destinations = {score.move.destination for score in planned}
        assert not sources & destinations  # a server acts once per interval

    def test_defers_while_measured_hotspot_exists(self):
        cluster = self.light_fleet()
        view = view_for(cluster, {"s0": 80.0})
        assert EnergyAwareConsolidationPolicy().plan(view) == []

    def test_defers_while_forecast_near_threshold(self):
        cluster = self.light_fleet()
        view = view_for(cluster, {}, predicted={"s2": 73.0})
        assert EnergyAwareConsolidationPolicy(margin_c=5.0).plan(view) == []

    def test_busy_servers_not_drained(self):
        cluster = self.light_fleet(3)
        for j in range(3):
            cluster.server("s2").host_vm(make_vm(f"extra-{j}", level=0.3))
        view = view_for(cluster, {"s0": 46.0, "s1": 47.0, "s2": 50.0})
        planned = EnergyAwareConsolidationPolicy(max_source_vms=1).plan(view)
        assert all(score.move.source != "s2" for score in planned)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyAwareConsolidationPolicy(max_source_vms=0)
        with pytest.raises(ConfigurationError):
            EnergyAwareConsolidationPolicy(margin_c=-0.5)
