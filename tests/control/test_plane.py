"""Unit tests for the ControlPlane act stage and its anti-thrash guards."""

import numpy as np
import pytest

from repro.control.plane import ControlPlane, ControlPlaneConfig
from repro.control.policies import ReactiveEvictionPolicy
from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.migration import MigrationStartEvent
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import ConfigurationError
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import WhatIfScorer
from repro.rng import RngFactory
from repro.serving import ModelRegistry, PredictionFleet
from repro.thermal.environment import ConstantEnvironment
from tests.conftest import make_server_spec, make_vm


DEMAND = FeatureExtractor().feature_names.index("nominal_demand_vcpus")


class EchoPredictor:
    """ψ = 40 + 3·(nominal demand column)."""

    def predict_features(self, x):
        return 40.0 + 3.0 * x[:, DEMAND]


class EchoEntry:
    """Registry entry stand-in: records go through the same feature rows."""

    def predict_features(self, x):
        return EchoPredictor().predict_features(x)

    def predict_records(self, records):
        return self.predict_features(FeatureExtractor().matrix(records))


class EchoRegistry:
    """Registry stand-in: every key resolves to the echo model."""

    def __init__(self):
        self._entry = EchoEntry()

    def resolve(self, key):
        return self._entry


def build_sim(n=4, hot=("s0",), vms_per_hot=3, memory_gb=64.0):
    cluster = Cluster("plane")
    for i in range(n):
        cluster.add_server(
            Server(make_server_spec(name=f"s{i}", memory_gb=memory_gb))
        )
    for name in hot:
        server = cluster.server(name)
        server.thermal.set_temperatures(85.0, 50.0)
        for j in range(vms_per_hot):
            server.host_vm(make_vm(f"{name}-vm{j}", vcpus=2, level=0.8, memory_gb=8.0))
    return DatacenterSimulation(
        cluster=cluster,
        environment=ConstantEnvironment(22.0),
        rng=RngFactory(3),
    )


def build_plane(policy=ReactiveEvictionPolicy(), **config_kwargs):
    fleet = PredictionFleet(EchoRegistry())
    config = ControlPlaneConfig(**config_kwargs)
    return ControlPlane(
        fleet,
        policy=policy,
        detector=HotspotDetector(threshold_c=75.0),
        scorer=WhatIfScorer(EchoPredictor()) if policy is not None else None,
        config=config,
    )


def pending_migrations(sim):
    return [
        event
        for _, _, event in sim.events._heap
        if isinstance(event, MigrationStartEvent)
    ]


class TestActStage:
    def test_issues_migration_events_for_hotspots(self):
        sim = build_sim()
        plane = build_plane()
        plane._on_step(sim, 60.0)
        events = pending_migrations(sim)
        assert len(events) == 1
        assert events[0].plan.source == "s0"
        assert plane.ledger.records[-1].moves_issued == 1

    def test_budget_caps_issued_moves(self):
        sim = build_sim(n=6, hot=("s0", "s1", "s2"))
        plane = build_plane(max_moves_per_interval=1)
        plane._on_step(sim, 60.0)
        row = plane.ledger.records[-1]
        assert row.moves_planned == 3
        assert row.moves_issued == 1
        assert row.moves_deferred == 2

    def test_server_cooldown_blocks_refire(self):
        sim = build_sim(n=4, hot=("s0",), vms_per_hot=3)
        plane = build_plane(server_cooldown_s=180.0)
        plane._on_step(sim, 60.0)
        assert plane.ledger.records[-1].moves_issued == 1
        # Next interval: the source is still hot but resting — the policy
        # sees the cooldown through the view and plans nothing at all.
        plane._on_step(sim, 120.0)
        row = plane.ledger.records[-1]
        assert row.moves_planned == 0
        assert row.moves_issued == 0
        # After the cooldown expires the next eviction may proceed (a
        # different VM: the first one still rests on its own cooldown).
        plane._on_step(sim, 300.0)
        assert plane.ledger.records[-1].moves_issued == 1
        issued_vms = [e.plan.vm_name for e in pending_migrations(sim)]
        assert len(set(issued_vms)) == 2

    def test_vm_cooldown_outlives_server_cooldown(self):
        sim = build_sim()
        plane = build_plane(server_cooldown_s=0.0, vm_cooldown_s=1000.0)
        plane._on_step(sim, 60.0)
        first = pending_migrations(sim)[0].plan.vm_name
        plane._on_step(sim, 120.0)
        second = pending_migrations(sim)
        assert len(second) == 2
        assert second[1].plan.vm_name != first

    def test_in_flight_reservation_blocks_overcommit(self):
        # Destination has room for exactly one 8 GiB VM; two hot sources
        # both want it across intervals. Without reservations the second
        # completion would blow CapacityError mid-simulation.
        sim = build_sim(n=3, hot=("s0", "s1"), vms_per_hot=1, memory_gb=10.0)
        plane = build_plane(server_cooldown_s=0.0)
        plane._on_step(sim, 60.0)
        assert plane.ledger.records[-1].moves_issued == 1
        # Next interval: s1 plans the same destination; the in-flight
        # 8 GiB reservation (migration not yet completed) blocks it.
        plane._on_step(sim, 120.0)
        row = plane.ledger.records[-1]
        assert row.moves_planned == 1
        assert row.moves_issued == 0

    def test_migrating_vm_not_replanned(self):
        sim = build_sim(n=4, hot=("s0",), vms_per_hot=1)
        # 0.1 GB/s link: the 8 GiB migration stays in flight for ~80 s.
        plane = build_plane(
            server_cooldown_s=0.0,
            vm_cooldown_s=0.0,
            bandwidth_gbps=0.1,
            dirty_rate_gbps=0.01,
        )
        plane._on_step(sim, 0.0)
        assert len(pending_migrations(sim)) == 1
        sim.run(1.5)  # fires MigrationStartEvent → VM enters MIGRATING
        plane._on_step(sim, 60.0)
        row = plane.ledger.records[-1]
        assert row.moves_planned == 0
        assert row.moves_issued == 0

    def test_baseline_observes_without_acting(self):
        sim = build_sim(n=4, hot=("s0", "s1"))
        plane = build_plane(policy=None)
        plane._on_step(sim, 60.0)
        row = plane.ledger.records[-1]
        assert row.moves_planned == 0
        assert row.measured_hotspots == 2
        assert row.it_power_w > 0
        assert pending_migrations(sim) == []

    def test_warm_up_intervals_skipped(self):
        sim = build_sim()
        plane = build_plane()
        sim._recording = False
        try:
            plane._on_step(sim, 60.0)
        finally:
            sim._recording = True
        assert plane.ledger.records == []

    def test_policy_without_scorer_rejected(self):
        fleet = PredictionFleet(EchoRegistry())
        with pytest.raises(ConfigurationError):
            ControlPlane(fleet, policy=ReactiveEvictionPolicy())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(max_moves_per_interval=-1)
        with pytest.raises(ConfigurationError):
            ControlPlaneConfig(server_cooldown_s=-1.0)


class TestPreForecastEdges:
    """The interval probe may fire before any forecast exists — the loop
    must account an (empty) interval rather than crash."""

    def test_tick_with_untracked_fleet_records_empty_interval(self):
        sim = build_sim(n=3, hot=("s0",))
        plane = build_plane()  # fleet tracks nothing: zero forecasts
        plane._on_step(sim, 60.0)
        assert plane.ledger.n_intervals == 1
        record = plane.ledger.records[0]
        assert record.n_tracked == 0
        assert record.forecasts_scored == 0
        assert np.isnan(record.forecast_error_c)
        # Measured detection still works without forecasts.
        assert record.measured_hotspots == 1
        assert record.predicted_hotspots == 0
        assert np.isnan(plane.ledger.windowed_forecast_error_c())

    def test_tick_with_tracked_but_unforecast_servers(self):
        from tests.conftest import make_record

        sim = build_sim(n=3, hot=("s0",))
        plane = build_plane()
        plane.fleet.track(
            ["s0", "s1"],
            [make_record(psi=None), make_record(psi=None, n_vms=5)],
            np.zeros(2),
            np.full(2, 40.0),
        )  # tracked, but predict_ahead never ran: all-NaN forecasts
        plane._on_step(sim, 60.0)
        record = plane.ledger.records[0]
        assert record.n_tracked == 2
        assert record.predicted_hotspots == 0
        assert record.forecasts_scored == 0


class StubLifecycle:
    """Duck-typed sixth stage: records the ticks it was handed."""

    def __init__(self):
        self.ticks = []

    def step(self, sim, time_s, fleet):
        self.ticks.append((time_s, fleet.n_servers))
        return None


class TestLifecycleStage:
    def test_lifecycle_stage_runs_after_account(self):
        sim = build_sim(n=3, hot=("s0",))
        fleet = PredictionFleet(EchoRegistry())
        lifecycle = StubLifecycle()
        plane = ControlPlane(
            fleet,
            detector=HotspotDetector(threshold_c=75.0),
            lifecycle=lifecycle,
        )
        plane._on_step(sim, 60.0)
        assert lifecycle.ticks == [(60.0, 0)]
        assert plane.ledger.n_intervals == 1  # account ran before lifecycle

    def test_no_lifecycle_is_the_default(self):
        plane = build_plane()
        assert plane.lifecycle is None


class TestRoundTrip:
    def test_issued_migration_completes_and_reservation_clears(self):
        sim = build_sim(n=3, hot=("s0",), vms_per_hot=1)
        plane = build_plane(server_cooldown_s=0.0, vm_cooldown_s=0.0)
        plane._on_step(sim, 60.0)
        assert len(plane._in_flight) == 1
        plan = pending_migrations(sim)[0].plan
        sim.run(plan.duration_s + 65.0)
        destination = sim.cluster.server(plan.destination)
        assert plan.vm_name in destination.vms
        plane._on_step(sim, sim.time_s)
        assert plane._in_flight == {}
