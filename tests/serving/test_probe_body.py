"""The prediction probe's one step body, on both simulation step bodies.

``FleetPredictionProbe`` reads each step's sensor samples from
``sim.step_columns``, which the structure-of-arrays body and the
per-server reference body publish in one shape. So a probe must give
bitwise-equal forecasts, retargets and ``predicted_cpu_temperature``
series whichever body ran each step, whenever it was attached, and it
must observe every sensor sample exactly once.
"""

import numpy as np
import pytest

from repro.config import PredictionConfig
from repro.core.features import FeatureExtractor
from repro.datacenter.events import FunctionEvent
from repro.experiments.scenarios import build_fleet_simulation, migration_storm_scenario
from repro.serving import FleetPredictionProbe, PredictionFleet
from repro.thermal.server_thermal import ServerThermalModel

GAP_S = PredictionConfig().prediction_gap_s
SCENARIO = migration_storm_scenario(
    n_servers=12, seed=91_400, storm_start_s=150.0, storm_window_s=200.0, duration_s=600.0
)


class LinearEntry:
    """Registry entry: ψ = 35 + Σ (feature × weight), over real Eq. 2 rows."""

    def predict_records(self, records):
        x = FeatureExtractor().matrix(records)
        return 35.0 + x @ np.linspace(0.01, 0.2, x.shape[1])


class LinearRegistry:
    def resolve(self, key):
        return LinearEntry()


class CustomPlant(ServerThermalModel):
    """Any plant subclass sends its whole cluster to the reference body."""


def swap_in_custom_plant(server) -> None:
    custom = CustomPlant(
        power_model=server.spec.build_power_model(),
        fans=server.fans,
        config=server.thermal.config,
    )
    custom.set_temperatures(
        server.thermal.cpu_temperature_c, server.thermal.case_temperature_c
    )
    custom.time_s = server.thermal.time_s
    server.thermal = custom


def run(use_fleet_engine: bool, attach_at_s: float = 0.0, swap_at_s: float | None = None):
    """One run of SCENARIO; returns (sim, fleet, soa flag per probed step)."""
    sim = build_fleet_simulation(SCENARIO, use_fleet_engine=use_fleet_engine)
    if swap_at_s is not None:
        sim.schedule(
            FunctionEvent(swap_at_s, lambda s: swap_in_custom_plant(s.cluster.servers[3]))
        )
    if attach_at_s:
        sim.run(attach_at_s)
    fleet = PredictionFleet(LinearRegistry())
    FleetPredictionProbe(fleet).attach(sim)
    soa_steps: list[bool] = []
    sim.add_probe(lambda s, t: soa_steps.append(s._fleet is not None))
    sim.run(SCENARIO.duration_s - attach_at_s)
    return sim, fleet, soa_steps


def assert_same_forecasts(a, b) -> None:
    (sim_a, fleet_a, _), (sim_b, fleet_b, _) = a, b
    assert fleet_a.names == fleet_b.names
    for attribute in ("_last_target", "_last_pred", "_gamma", "_psi", "_origin"):
        assert np.array_equal(
            getattr(fleet_a, attribute), getattr(fleet_b, attribute), equal_nan=True
        ), attribute
    assert fleet_a.retarget_log == fleet_b.retarget_log
    for name in fleet_a.names:
        pa = sim_a.telemetry.for_server(name).predicted_cpu_temperature
        pb = sim_b.telemetry.for_server(name).predicted_cpu_temperature
        assert np.array_equal(pa.times_array(), pb.times_array()), name
        assert np.array_equal(pa.values_array(), pb.values_array()), name


def assert_each_sample_observed_once(sim, fleet, since_s: float) -> None:
    """One forecast per sensor sample taken after ``since_s``, at its target."""
    assert fleet.n_servers == len(sim.cluster.servers)
    for name in fleet.names:
        bundle = sim.telemetry.for_server(name)
        sampled = bundle.cpu_temperature.times_array()
        sampled = sampled[sampled > since_s]
        forecast = bundle.predicted_cpu_temperature.times_array()
        assert np.array_equal(forecast, sampled + GAP_S), name


@pytest.fixture(scope="module")
def reference():
    return run(False)


def test_soa_body_matches_reference_body(reference):
    soa = run(True)
    assert all(soa[2])
    assert not any(reference[2])
    assert len(reference[1].retarget_log) >= 6  # storm sources and destinations
    assert_same_forecasts(soa, reference)
    assert_each_sample_observed_once(soa[0], soa[1], 0.0)


@pytest.mark.parametrize("attach_at_s", [98.0, 203.0])
def test_probe_attached_mid_run(attach_at_s):
    """Attached between sensor samples (and mid-storm), the probe starts
    at the next sample on either body and never replays an old one."""
    soa = run(True, attach_at_s)
    ref = run(False, attach_at_s)
    assert_same_forecasts(soa, ref)
    assert_each_sample_observed_once(soa[0], soa[1], attach_at_s)
    assert_each_sample_observed_once(ref[0], ref[1], attach_at_s)


def test_run_switching_bodies_matches_reference(reference):
    """A custom plant swapped in mid-run moves the cluster from the SoA
    body to the reference body; the probe's results do not change."""
    switched = run(True, swap_at_s=250.0)
    ref = run(False, swap_at_s=250.0)
    assert switched[2][0] and not switched[2][-1]
    assert_same_forecasts(switched, ref)
    assert_each_sample_observed_once(switched[0], switched[1], 0.0)
