"""Tests for the fleet prediction service: bit-exact parity with the
scalar predictors, Δ_update semantics, retargeting, hotspot wiring, and
the simulation probe."""

import pickle

import numpy as np
import pytest

from repro.config import PredictionConfig
from repro.core.curve import PredefinedCurve
from repro.core.dynamic import DynamicTemperaturePredictor
from repro.core.monitor import TemperatureMonitor
from repro.core.stable import StableTemperaturePredictor
from repro.datacenter.cluster import Cluster
from repro.datacenter.migration import migrate_vm
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import ServingError
from repro.management.hotspot import HotspotDetector
from repro.rng import RngFactory
from repro.serving import (
    FleetPredictionProbe,
    ModelRegistry,
    PredictionFleet,
    predicted_vs_actual,
)
from tests.conftest import make_record, make_server_spec, make_vm


@pytest.fixture(scope="module")
def stable():
    records = [
        make_record(psi=40.0 + 2.5 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i)
        for i in range(12)
    ]
    return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(records)


@pytest.fixture(scope="module")
def registry(stable):
    reg = ModelRegistry()
    reg.register("default", stable)
    return reg


def _scalar_arm(stable, config, records, t0, first):
    """Per-server DynamicTemperaturePredictor loop seeded like the fleet."""
    scalars = []
    for i, record in enumerate(records):
        curve = PredefinedCurve(
            phi_0=float(first[i]),
            psi_stable=stable.predict(record),
            t_break_s=config.t_break_s,
            delta=config.curve_delta,
            origin_s=float(t0[i]),
        )
        scalars.append(DynamicTemperaturePredictor(curve, config=config))
    return scalars


class TestFleetParity:
    def test_bitwise_parity_with_scalar_loop(self, stable, registry):
        """Jittered timestamps, calibration, and a mid-run retarget all
        produce bit-identical forecasts vs the per-server predictors."""
        config = PredictionConfig()
        n = 6
        names = [f"s{i}" for i in range(n)]
        records = [make_record(psi=None, n_vms=2 + i) for i in range(n)]
        rng = np.random.default_rng(3)
        t0 = rng.uniform(0.0, 4.0, n)
        first = rng.uniform(35.0, 45.0, n)

        fleet = PredictionFleet(registry, config)
        psi = fleet.track(names, records, t0, first)
        scalars = _scalar_arm(stable, config, records, t0, first)
        assert np.array_equal(
            psi, np.array([s.curve.psi_stable for s in scalars])
        )

        for step in range(1, 120):
            t = t0 + 5.0 * step + rng.uniform(-0.3, 0.3, n)
            v = first + 0.05 * step + rng.normal(0.0, 0.3, n)
            fleet.observe(t, v)
            _, fleet_pred = fleet.predict_ahead(t)
            scalar_pred = []
            for i, s in enumerate(scalars):
                s.observe(float(t[i]), float(v[i]))
                scalar_pred.append(s.predict_ahead(float(t[i])).predicted_c)
            assert np.array_equal(fleet_pred, np.array(scalar_pred)), step
            if step == 60:
                new_records = [make_record(psi=None, n_vms=8, util=0.8)] * 2
                fleet.retarget(names[:2], new_records, t[:2], v[:2])
                for i in range(2):
                    scalars[i].retarget(
                        float(t[i]), float(v[i]), stable.predict(new_records[i])
                    )
        assert np.array_equal(
            fleet.gamma, np.array([s.calibrator.gamma for s in scalars])
        )

    def test_uncalibrated_fleet_keeps_gamma_zero(self, registry):
        fleet = PredictionFleet(registry, calibrated=False)
        fleet.track(["a"], [make_record(psi=None)], np.array([0.0]), np.array([40.0]))
        applied = fleet.observe(np.array([100.0]), np.array([99.0]))
        assert not applied.any()
        assert fleet.gamma[0] == 0.0


class TestObserveSemantics:
    def test_updates_follow_delta_update_grid(self, registry):
        config = PredictionConfig(update_interval_s=15.0)
        fleet = PredictionFleet(registry, config)
        fleet.track(["a"], [make_record(psi=None)], np.array([0.0]), np.array([40.0]))
        assert fleet.observe(np.array([0.0]), np.array([40.0])).all()
        # within the interval: ignored
        assert not fleet.observe(np.array([7.0]), np.array([41.0])).any()
        # at the next grid point: applied
        assert fleet.observe(np.array([15.0]), np.array([41.0])).all()

    def test_subset_observation_via_indices(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(
            ["a", "b"],
            [make_record(psi=None), make_record(psi=None, n_vms=5)],
            np.array([0.0, 0.0]),
            np.array([40.0, 42.0]),
        )
        fleet.observe(np.array([20.0]), np.array([55.0]), indices=[1])
        gamma = fleet.gamma
        assert gamma[0] == 0.0
        assert gamma[1] != 0.0


class TestMembership:
    def test_track_rejects_duplicates(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(["a"], [make_record(psi=None)], np.array([0.0]), np.array([40.0]))
        with pytest.raises(ServingError, match="already tracked"):
            fleet.track(
                ["a"], [make_record(psi=None)], np.array([1.0]), np.array([41.0])
            )

    def test_track_rejects_misaligned_batch(self, registry):
        fleet = PredictionFleet(registry)
        with pytest.raises(ServingError, match="names"):
            fleet.track(
                ["a", "b"], [make_record(psi=None)], np.array([0.0]), np.array([40.0])
            )

    def test_indices_of_untracked_server_raise(self, registry):
        fleet = PredictionFleet(registry)
        with pytest.raises(ServingError, match="not tracked"):
            fleet.indices(["ghost"])

    def test_retarget_rejects_misaligned_batch(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(
            ["a", "b"],
            [make_record(psi=None), make_record(psi=None)],
            np.array([0.0, 0.0]),
            np.array([40.0, 41.0]),
        )
        with pytest.raises(ServingError, match="records"):
            fleet.retarget(
                ["a", "b"], [make_record(psi=None)], np.array([5.0, 5.0]),
                np.array([42.0, 43.0]),
            )
        with pytest.raises(ServingError, match="align"):
            fleet.retarget(
                ["a", "b"],
                [make_record(psi=None), make_record(psi=None)],
                np.array([5.0]),
                np.array([42.0, 43.0]),
            )

    def test_incremental_track_appends(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(["a"], [make_record(psi=None)], np.array([0.0]), np.array([40.0]))
        fleet.track(["b"], [make_record(psi=None)], np.array([5.0]), np.array([41.0]))
        assert fleet.names == ["a", "b"]
        assert list(fleet.indices(["b", "a"])) == [1, 0]


class TestForecastSnapshot:
    def test_snapshot_masks_unforecast_servers(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(
            ["a", "b"],
            [make_record(psi=None), make_record(psi=None, n_vms=6)],
            np.array([0.0, 0.0]),
            np.array([40.0, 55.0]),
        )
        snapshot = fleet.forecast_snapshot()
        assert snapshot.names == ("a", "b")
        assert not snapshot.has_forecast.any()
        assert snapshot.forecasts() == ([], pytest.approx([]))

        fleet.predict_ahead(100.0, indices=[1])
        snapshot = fleet.forecast_snapshot()
        assert snapshot.has_forecast.tolist() == [False, True]
        names, predicted = snapshot.forecasts()
        assert names == ["b"]
        assert predicted[0] == fleet.forecast_all()["b"]

    def test_snapshot_is_decoupled_from_live_state(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(
            ["a"], [make_record(psi=None)], np.array([0.0]), np.array([40.0])
        )
        fleet.predict_ahead(50.0)
        snapshot = fleet.forecast_snapshot()
        before = snapshot.predicted_c.copy()
        fleet.observe(400.0, np.array([60.0]))
        fleet.predict_ahead(400.0)
        assert np.array_equal(snapshot.predicted_c, before)
        assert snapshot.target_times_s[0] == pytest.approx(50.0 + fleet.config.prediction_gap_s)

    def test_snapshot_matches_forecast_all(self, registry):
        fleet = PredictionFleet(registry)
        names = [f"s{i}" for i in range(4)]
        fleet.track(
            names,
            [make_record(psi=None, n_vms=2 + i) for i in range(4)],
            np.zeros(4),
            np.full(4, 42.0),
        )
        fleet.observe(np.full(4, 200.0), np.linspace(45.0, 60.0, 4))
        fleet.predict_ahead(np.full(4, 200.0))
        snapshot = fleet.forecast_snapshot()
        assert dict(zip(snapshot.names, snapshot.predicted_c.tolist())) == (
            fleet.forecast_all()
        )
        assert snapshot.gamma.tolist() == fleet.gamma.tolist()
        assert snapshot.n_servers == 4


class TestEmptyFleetEdges:
    """Zero-server and zero-forecast edges of the snapshot read path.

    The control plane's interval probe can legitimately fire before the
    prediction probe has tracked anything (short intervals, sparse
    sensors) and policies consume whatever the snapshot returns — every
    read API must degrade to empty results, never crash."""

    def test_empty_fleet_snapshot_and_detection(self, registry):
        fleet = PredictionFleet(registry)
        snapshot = fleet.forecast_snapshot()
        assert snapshot.n_servers == 0
        assert snapshot.forecast_names() == []
        names, predicted = snapshot.forecasts()
        assert names == [] and predicted.shape == (0,)
        assert HotspotDetector().detect_fleet(names, predicted) == []
        assert fleet.predicted_hotspots(HotspotDetector()) == []
        assert fleet.forecast_all() == {}
        assert fleet.model_keys == []

    def test_empty_fleet_online_calls_are_noops(self, registry):
        fleet = PredictionFleet(registry)
        assert fleet.observe(0.0, np.empty(0)).shape == (0,)
        targets, predicted = fleet.predict_ahead(0.0)
        assert targets.shape == (0,) and predicted.shape == (0,)
        assert fleet.predict_at(0.0).shape == (0,)
        assert fleet.track([], [], np.empty(0), np.empty(0)).shape == (0,)
        assert fleet.retarget([], [], np.empty(0), np.empty(0)).shape == (0,)

    def test_all_nan_has_forecast_filters_everything(self, registry):
        # Tracked servers with no forecast yet: every row masked out.
        fleet = PredictionFleet(registry)
        fleet.track(
            ["a", "b", "c"],
            [make_record(psi=None, n_vms=2 + i) for i in range(3)],
            np.zeros(3),
            np.full(3, 40.0),
        )
        snapshot = fleet.forecast_snapshot()
        assert not snapshot.has_forecast.any()
        names, predicted = snapshot.forecasts()
        assert names == [] and predicted.shape == (0,)
        assert HotspotDetector().detect_fleet(names, predicted) == []
        assert fleet.predicted_hotspots(HotspotDetector()) == []

    def test_empty_mapping_detection(self):
        detector = HotspotDetector()
        assert detector.detect({}) == []
        assert detector.headroom({}) == {}
        assert detector.headroom_fleet(np.empty(0)).shape == (0,)


class TestHotspotWiring:
    def test_predicted_hotspots_uses_latest_forecasts(self, registry):
        fleet = PredictionFleet(registry)
        fleet.track(
            ["cool", "hot"],
            [make_record(psi=None, n_vms=2), make_record(psi=None, n_vms=10, util=0.9)],
            np.array([0.0, 0.0]),
            np.array([40.0, 70.0]),
        )
        fleet.observe(np.array([650.0, 650.0]), np.array([45.0, 82.0]))
        fleet.predict_ahead(np.array([650.0, 650.0]))
        spots = fleet.predicted_hotspots(HotspotDetector(threshold_c=75.0))
        assert [s.server_name for s in spots] == ["hot"]

    def test_detect_fleet_matches_dict_detect(self):
        detector = HotspotDetector(threshold_c=70.0)
        names = ["a", "b", "c"]
        temps = np.array([70.5, 60.0, 90.0])
        fleet_spots = detector.detect_fleet(names, temps)
        dict_spots = detector.detect(dict(zip(names, temps.tolist())))
        assert [(s.server_name, s.temperature_c) for s in fleet_spots] == [
            (s.server_name, s.temperature_c) for s in dict_spots
        ]

    def test_headroom_fleet(self):
        detector = HotspotDetector(threshold_c=75.0)
        margins = detector.headroom_fleet(np.array([70.0, 80.0]))
        assert margins.tolist() == [5.0, -5.0]


def _build_sim(seed: int = 5):
    cluster = Cluster("c")
    for i in range(3):
        server = Server(make_server_spec(name=f"s{i}"))
        for j in range(2 + i):
            server.host_vm(make_vm(f"vm-{i}-{j}", vcpus=2, level=0.5 + 0.1 * j))
        cluster.add_server(server)
    sim = DatacenterSimulation(cluster=cluster, rng=RngFactory(seed))
    sim.equalize_temperatures()
    migrate_vm(sim, "vm-2-1", "s0", start_time_s=200.0)
    return sim


class TestProbeIntegration:
    def test_probe_matches_temperature_monitor_bitwise(self, stable, registry):
        """The batched probe reproduces TemperatureMonitor's forecasts
        exactly on an identical simulation (same seeds → same sensor
        noise), including the retarget triggered by the migration."""
        sim_monitor = _build_sim()
        monitor = TemperatureMonitor(stable)
        monitor.attach(sim_monitor)
        sim_monitor.run(600.0)

        sim_fleet = _build_sim()
        fleet = PredictionFleet(registry)
        FleetPredictionProbe(fleet).attach(sim_fleet)
        sim_fleet.run(600.0)

        for name in ("s0", "s1", "s2"):
            forecasts = monitor.logs[name].forecasts
            series = sim_fleet.telemetry.for_server(name).predicted_cpu_temperature
            assert [f.target_time_s for f in forecasts] == series.times
            assert [f.predicted_c for f in forecasts] == series.values
        monitor_retargets = sum(len(log.retargets) for log in monitor.logs.values())
        assert len(fleet.retarget_log) == monitor_retargets
        assert monitor_retargets >= 2  # migration source and destination

    def test_predicted_vs_actual_alignment(self, registry):
        sim = _build_sim()
        fleet = PredictionFleet(registry)
        FleetPredictionProbe(fleet).attach(sim)
        sim.run(400.0)
        times, predicted, actual = predicted_vs_actual(sim.telemetry, "s0")
        assert times.shape == predicted.shape == actual.shape
        assert times.size > 0
        # matured forecasts only: targets inside the measured trace
        last_measured = sim.telemetry.for_server("s0").cpu_temperature.times[-1]
        assert times[-1] <= last_measured + 1e-9
        assert float(np.mean((predicted - actual) ** 2)) < 50.0

    def test_probe_server_filter(self, registry):
        sim = _build_sim()
        fleet = PredictionFleet(registry)
        FleetPredictionProbe(fleet, servers=["s1"]).attach(sim)
        sim.run(120.0)
        assert fleet.names == ["s1"]
        assert len(sim.telemetry.for_server("s0").predicted_cpu_temperature) == 0

    def test_default_keyed_probe_pickles(self, registry):
        """A probe with the default key function survives a pickle round
        trip attached to its simulation, and both copies forecast alike."""
        sim = _build_sim()
        FleetPredictionProbe(PredictionFleet(registry)).attach(sim)
        sim.run(120.0)
        copy = pickle.loads(pickle.dumps(sim))
        sim.run(280.0)
        copy.run(280.0)
        for name in ("s0", "s1", "s2"):
            original = sim.telemetry.for_server(name).predicted_cpu_temperature
            restored = copy.telemetry.for_server(name).predicted_cpu_temperature
            assert len(original) > 0
            assert [v.hex() for v in restored.values] == [
                v.hex() for v in original.values
            ]
