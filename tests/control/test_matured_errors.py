"""Parity: the control tick's one matured-error pass against its reference.

``matured_forecast_errors`` computes every tracked server's matured
forecast error once per tick; the ledger row and the drift monitor's
per-class rows both aggregate that one result. ``forecast_error_at``
reads telemetry server by server and is the reference: each server's
error, the fleet aggregate and every per-class aggregate must be
bitwise equal to it.
"""

import numpy as np
import pytest

from repro.control.ledger import forecast_error_at, matured_forecast_errors
from repro.core.features import FeatureExtractor
from repro.datacenter.events import FunctionEvent
from repro.datacenter.server import Server
from repro.experiments.scenarios import (
    build_fleet_simulation,
    class_balanced_fleet_scenario,
    cooling_failure_scenario,
    diurnal_fleet_scenario,
    flash_crowd_scenario,
    migration_storm_scenario,
    model_drift_scenario,
    thermal_cascade_scenario,
)
from repro.lifecycle import DriftMonitor, DriftMonitorConfig
from repro.scenarios import ScenarioFuzzer
from repro.serving import FleetPredictionProbe, PredictionFleet
from repro.training import server_class_key
from tests.conftest import make_server_spec, make_vm

#: Checked this often (simulated seconds) and for at most this long.
CHECK_S = 60.0
HORIZON_S = 960.0


class LinearEntry:
    """Registry entry: ψ = 35 + Σ (feature × weight), over real Eq. 2 rows."""

    def predict_records(self, records):
        x = FeatureExtractor().matrix(records)
        return 35.0 + x @ np.linspace(0.01, 0.2, x.shape[1])


class LinearRegistry:
    def resolve(self, key):
        return LinearEntry()


def same(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_pass_matches_reference(sim, fleet, time_s: float) -> int:
    """Check one tick; returns how many servers had a matured forecast."""
    telemetry = sim.telemetry
    names = fleet.names
    errors = matured_forecast_errors(telemetry, names, time_s)
    for i, name in enumerate(names):
        reference, scored = forecast_error_at(telemetry, [name], time_s)
        assert bool(errors.scored[i]) == bool(scored), name
        if scored:
            assert same(errors.abs_error_c[i], reference), name

    mean, scored = errors.mean()
    reference, reference_scored = forecast_error_at(telemetry, names, time_s)
    assert scored == reference_scored
    assert same(mean, reference)

    record = DriftMonitor(DriftMonitorConfig(warmup_intervals=0)).observe_fleet(
        time_s, fleet, errors
    )
    keys = fleet.model_keys
    assert [signal.key for signal in record.signals] == sorted(set(keys))
    for signal in record.signals:
        members = [name for name, key in zip(names, keys) if key == signal.key]
        reference, reference_scored = forecast_error_at(telemetry, members, time_s)
        assert signal.forecasts_scored == reference_scored
        assert same(signal.forecast_mae_c, reference)
    return scored


def run_checked(sim, duration_s: float, servers=None) -> list[int]:
    """Run with a class-keyed probe, checking the pass every CHECK_S."""
    fleet = PredictionFleet(LinearRegistry())
    FleetPredictionProbe(
        fleet, servers=servers, key_fn=lambda server: server_class_key(server.spec)
    ).attach(sim)
    scored: list[int] = []
    sim.add_probe(
        lambda s, t: scored.append(assert_pass_matches_reference(s, fleet, t)),
        interval_s=CHECK_S,
    )
    sim.run(duration_s)
    assert scored and max(scored) > 0
    return scored


FLEET_BUILDERS = [
    diurnal_fleet_scenario,
    class_balanced_fleet_scenario,
    model_drift_scenario,
    migration_storm_scenario,
    cooling_failure_scenario,
    thermal_cascade_scenario,
    flash_crowd_scenario,
]


@pytest.mark.parametrize("builder", FLEET_BUILDERS, ids=lambda b: b.__name__)
def test_library_fleets(builder):
    scenario = builder()
    run_checked(
        build_fleet_simulation(scenario), min(scenario.duration_s, HORIZON_S)
    )


@pytest.mark.parametrize("seed", range(1, 6))
def test_fuzzed_fleets(seed):
    scenario = ScenarioFuzzer().scenario(seed)
    run_checked(build_fleet_simulation(scenario), min(scenario.duration_s, HORIZON_S))


def test_server_filtered_probe():
    """Only the watched servers are tracked; unwatched ones are never scored."""
    scenario = class_balanced_fleet_scenario(
        n_classes=3, servers_per_class=4, seed=43_600, duration_s=600.0
    )
    sim = build_fleet_simulation(scenario)
    watched = [server.name for server in sim.cluster.servers][::3]
    run_checked(sim, 600.0, servers=watched)
    unwatched = [s.name for s in sim.cluster.servers if s.name not in watched]
    assert forecast_error_at(sim.telemetry, unwatched, sim.time_s)[1] == 0


def test_partially_sampled_steps():
    """A server joining mid-period samples out of phase with the rest, so
    steps sample only some sensors (the ``append_cpu_sample`` path)."""
    scenario = class_balanced_fleet_scenario(
        n_classes=2, servers_per_class=4, seed=43_700, duration_s=600.0
    )
    sim = build_fleet_simulation(scenario)
    partial_steps: list[float] = []

    def join(s):
        server = Server(make_server_spec(name="late-joiner"))
        server.host_vm(make_vm("late-vm", vcpus=4, level=0.7), time_s=s.time_s)
        s.cluster.add_server(server)

    def count_partial(s, t):
        if 0 < s.step_columns.sampled.size < len(s.cluster.servers):
            partial_steps.append(t)

    sim.schedule(FunctionEvent(32.5, join))
    sim.add_probe(count_partial)
    run_checked(sim, 600.0)
    assert len(partial_steps) > 10
