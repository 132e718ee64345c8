"""Parity: the fleet-wide telemetry readers against the per-server series.

``TelemetryCollector.window_stats``, ``latest_forecasts`` and
``values_at`` read the recorded blocks with array operations; the
per-server series (``TimeSeries.window(...).mean()``,
``last_before``, ``value_at``) are the reference. Every result must be
bitwise equal to the reference on runs with full rows, with partially
sampled steps (masked rows) and across a membership change (two
blocks), for servers outside the latest block and for names never
recorded. The last test guards the storage layout itself.
"""

import numpy as np
import pytest

from repro.core.features import FeatureExtractor
from repro.datacenter.events import FunctionEvent
from repro.datacenter.server import Server
from repro.datacenter.telemetry import TelemetryCollector
from repro.experiments.scenarios import (
    build_fleet_simulation,
    class_balanced_fleet_scenario,
    migration_storm_scenario,
)
from repro.lifecycle import RetrainPlanner, RetrainPlannerConfig
from repro.serving import FleetPredictionProbe, PredictionFleet
from tests.conftest import make_server_spec, make_vm

GHOST = "never-recorded"


class LinearEntry:
    def predict_records(self, records):
        x = FeatureExtractor().matrix(records)
        return 35.0 + x @ np.linspace(0.01, 0.2, x.shape[1])


class LinearRegistry:
    def resolve(self, key):
        return LinearEntry()


def same(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _join(name: str, level: float):
    def event(s):
        server = Server(make_server_spec(name=name))
        server.host_vm(make_vm(f"{name}-vm", vcpus=4, level=level), time_s=s.time_s)
        s.cluster.add_server(server)

    return event


def _run(kind: str):
    if kind == "full":
        scenario = migration_storm_scenario(
            n_servers=10, storm_start_s=100.0, storm_window_s=200.0, duration_s=500.0
        )
    else:
        scenario = class_balanced_fleet_scenario(
            n_classes=2, servers_per_class=3, seed=45_000, duration_s=500.0
        )
    sim = build_fleet_simulation(scenario)
    fleet = PredictionFleet(LinearRegistry())
    FleetPredictionProbe(fleet).attach(sim)
    if kind == "partial":
        sim.schedule(FunctionEvent(32.5, _join("late-joiner", 0.7)))
    elif kind == "membership":
        sim.schedule(FunctionEvent(200.0, _join("joiner", 0.8)))
    sim.run(500.0)
    return sim, fleet


@pytest.fixture(scope="module", params=["full", "partial", "membership"])
def run(request):
    sim, fleet = _run(request.param)
    blocks = sim.telemetry.blocks
    if request.param == "full":
        assert len(blocks) == 1 and blocks[0].samples.mask is None
    elif request.param == "partial":
        assert blocks[-1].samples.mask is not None
    else:
        assert len(blocks) == 2 and blocks[-1].samples.mask is None
    return sim, fleet


def _names(sim):
    return [server.name for server in sim.cluster.servers] + [GHOST]


WINDOWS = [
    (0.0, 500.0 + 1e-9),
    (0.0, 50.0),
    (37.0, 37.0),
    (150.0, 260.0),
    (199.0, 201.0),
    (200.0, 500.0 + 1e-9),
    (205.0, 380.5),
    (480.0, 900.0),
    (600.0, 700.0),
]


@pytest.mark.parametrize(
    "series_name",
    ["cpu_temperature", "vm_count", "utilization", "predicted_cpu_temperature"],
)
def test_window_stats_match_per_server_windows(run, series_name):
    sim, _ = run
    telemetry = sim.telemetry
    names = _names(sim)
    for t0, t1 in WINDOWS:
        stats = telemetry.window_stats(series_name, names, t0, t1)
        for i, name in enumerate(names):
            window = getattr(telemetry.for_server(name), series_name).window(t0, t1)
            assert stats.counts[i] == len(window), (name, t0, t1)
            if len(window):
                values = window.values_array()
                assert same(stats.means[i], window.mean()), (name, t0, t1)
                assert same(stats.lows[i], values.min())
                assert same(stats.highs[i], values.max())
            else:
                assert np.isnan(stats.means[i])


def test_stable_cpu_temperature_matches_window_mean(run):
    sim, _ = run
    telemetry = sim.telemetry
    for name in _names(sim)[:-1]:
        for t_break, t_exp in [(0.0, 500.0), (100.0, 300.0), (250.0, 500.0)]:
            series = telemetry.for_server(name).cpu_temperature
            window = series.window(t_break, t_exp + 1e-9)
            if not len(window):
                continue
            psi = telemetry.stable_cpu_temperature(name, t_break, t_exp)
            assert type(psi) is float
            assert same(psi, window.mean())


def _query_times(series, rng) -> list[float]:
    times = series.times_array()
    picks = [-5.0, 0.0, 200.0, 200.5, 500.0, 530.0, 1e6]
    if times.size:
        picks += times[rng.integers(0, times.size, 6)].tolist()
        picks += (times[0] - 1.0, times[0], times[-1], times[-1] + 0.25)
    picks += rng.uniform(-10.0, 540.0, 8).tolist()
    return picks


def test_latest_forecasts_match_last_before(run):
    sim, _ = run
    telemetry = sim.telemetry
    names = _names(sim)
    rng = np.random.default_rng(3)
    for time_s in _query_times(telemetry.for_server(names[0]).predicted_cpu_temperature, rng):
        targets, predicted, found = telemetry.latest_forecasts(names, time_s)
        for i, name in enumerate(names):
            series = telemetry.for_server(name).predicted_cpu_temperature
            times = series.times_array()
            if not times.size or times[0] > time_s:
                assert not found[i], (name, time_s)
                continue
            assert found[i], (name, time_s)
            reference = series.last_before(time_s)
            assert same(targets[i], reference[0]) and same(predicted[i], reference[1])


def test_values_at_match_value_at(run):
    sim, _ = run
    telemetry = sim.telemetry
    names = _names(sim)
    rng = np.random.default_rng(5)
    for series_name in ("cpu_temperature", "utilization"):
        probe = getattr(telemetry.for_server(names[0]), series_name)
        for time_s in _query_times(probe, rng):
            # Each server asked at its own time: shared, nudged or random.
            times = np.full(len(names), time_s)
            times[::3] += rng.uniform(-3.0, 3.0, times[::3].size)
            values, found = telemetry.values_at(series_name, names, times)
            for i, name in enumerate(names):
                series = getattr(telemetry.for_server(name), series_name)
                assert found[i] == bool(len(series)), (name, time_s)
                if len(series):
                    reference = series.value_at(float(times[i]))
                    assert same(values[i], reference), (name, series_name, times[i])


def test_planner_means_match_window_means(run):
    sim, fleet = run
    planner = RetrainPlanner(
        RetrainPlannerConfig(
            window_s=240.0, min_samples=5, min_class_records=2,
            require_stable_vm_set=False,
        )
    )
    for time_s in (300.0, 420.0, 500.0):
        plan = planner.plan(time_s, sorted(set(fleet.model_keys)), sim, fleet)
        assert plan.n_records
        for record_set in plan.classes:
            for name, record in zip(record_set.server_names, record_set.records):
                series = sim.telemetry.for_server(name).cpu_temperature
                expected = series.window(time_s - 240.0, time_s + 1e-9).mean()
                assert same(record.psi_stable_c, expected)


def test_readers_match_per_server_series_on_random_rows():
    """Long windows and irregular sample times, where a column-wise 2-D
    sum or another interpolation formula would round differently."""
    rng = np.random.default_rng(11)
    collector = TelemetryCollector()
    names = [f"s{i}" for i in range(24)]
    times = np.cumsum(rng.uniform(0.2, 3.0, 3000))
    for t in times:
        collector.record_fleet_cpu_samples(float(t), names, rng.normal(55.0, 8.0, 24))
        collector.record_fleet_forecasts(float(t) + 30.0, names, rng.normal(55.0, 8.0, 24))
    names = names + [GHOST]
    end = float(times[-1])
    for t0, t1 in np.sort(rng.uniform(-10.0, end + 10.0, (12, 2)), axis=1):
        stats = collector.window_stats("cpu_temperature", names, t0, t1)
        for i, name in enumerate(names):
            window = collector.for_server(name).cpu_temperature.window(t0, t1)
            assert stats.counts[i] == len(window)
            if len(window):
                assert same(stats.means[i], window.mean())
    for _ in range(40):
        query = rng.uniform(-10.0, end + 40.0, len(names))
        values, found = collector.values_at("cpu_temperature", names, query)
        time_s = float(query[0])
        targets, predicted, has = collector.latest_forecasts(names, time_s)
        for i, name in enumerate(names):
            bundle = collector.for_server(name)
            assert found[i] == (name != GHOST)
            if found[i]:
                assert same(values[i], bundle.cpu_temperature.value_at(float(query[i])))
            forecasts = bundle.predicted_cpu_temperature
            assert has[i] == bool(len(forecasts) and forecasts.times_array()[0] <= time_s)
            if has[i]:
                assert (targets[i], predicted[i]) == forecasts.last_before(time_s)


def test_step_storage_is_one_time_column_plus_eight_bytes_per_cell():
    """Per-step channels cost one shared time column per block plus 8 B
    per (slot, step, channel) — no per-server copies of the time column."""
    sim, _ = _run("full")
    telemetry = sim.telemetry
    (block,) = telemetry.blocks
    steps = block.steps
    n_slots = block.n_slots
    assert steps.size == 500
    # The run's step count sized the block: no growth slack at all.
    assert steps.capacity == 500
    assert steps.nbytes == steps.capacity * (8 + 4 * 8 * n_slots)
    # A later run grows the block by at least doubling: at most 2x slack.
    sim.run(100.0)
    assert steps.size == 600
    assert 600 <= steps.capacity <= 2 * 600
    assert steps.nbytes == steps.capacity * (8 + 4 * 8 * n_slots)
    # Servers hold nothing of their own: everything is in the blocks.
    for name in telemetry.server_names:
        bundle = telemetry.for_server(name)
        assert bundle.utilization.nbytes == 0
        assert bundle.cpu_temperature.nbytes == 0
    assert telemetry.nbytes == block.nbytes + telemetry.environment.nbytes


def test_unannounced_rows_grow_by_doubling():
    collector = TelemetryCollector()
    names = ["a", "b", "c"]
    ones = np.ones(3)
    for k in range(100):
        collector.record_fleet_step(float(k), names, ones, ones, ones, ones)
    steps = collector.blocks[0].steps
    assert steps.size == 100
    assert steps.capacity == 128
    assert steps.nbytes == 128 * (8 + 4 * 8 * 3)
