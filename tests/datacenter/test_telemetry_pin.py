"""Bit-identity pins for what telemetry records.

Every reader of a run — the Eq. (1) label, the control tick's matured
forecast error, the retrain harvest, the figures — sees the simulation
only through :class:`~repro.datacenter.telemetry.TelemetryCollector`.
These tests pin the exact bits it holds (``float.hex`` of the times and
values of every series of every server, hashed), so a rewrite of the
storage must reproduce the same samples in the same order:

* a library fleet on the structure-of-arrays step body;
* the same fleet on the per-server reference body;
* a late joiner whose sensor samples out of phase with the rest, so
  steps sample only some sensors;
* a mid-run membership change on a step boundary, with fan retunes;
* a run that starts with ``warm_up`` (nothing recorded before it).

Each run carries a forecast probe, so the ``predicted_cpu_temperature``
series are pinned too. A last test pins the ``RetrainPlan`` records the
sliding-window planner harvests from a small drift fleet.
"""

import hashlib

import numpy as np

from repro.core.features import FeatureExtractor
from repro.datacenter.events import FunctionEvent
from repro.datacenter.server import Server
from repro.experiments.scenarios import (
    build_fleet_simulation,
    class_balanced_fleet_scenario,
    migration_storm_scenario,
    model_drift_scenario,
)
from repro.lifecycle import RetrainPlanner, RetrainPlannerConfig
from repro.serving import FleetPredictionProbe, PredictionFleet
from repro.training import server_class_key
from tests.conftest import make_server_spec, make_vm

SERIES = (
    "cpu_temperature",
    "utilization",
    "vm_count",
    "fan_count",
    "fan_speed",
    "predicted_cpu_temperature",
)


class LinearEntry:
    """Registry entry: ψ = 35 + Σ (feature × weight), over real Eq. 2 rows."""

    def predict_records(self, records):
        x = FeatureExtractor().matrix(records)
        return 35.0 + x @ np.linspace(0.01, 0.2, x.shape[1])


class LinearRegistry:
    def resolve(self, key):
        return LinearEntry()


def _class_key(server):
    return server_class_key(server.spec)


def _with_probe(sim) -> PredictionFleet:
    fleet = PredictionFleet(LinearRegistry())
    FleetPredictionProbe(fleet, key_fn=_class_key).attach(sim)
    return fleet


def _telemetry_digest(sim) -> str:
    telemetry = sim.telemetry
    lines = []
    for name in telemetry.server_names:
        bundle = telemetry.for_server(name)
        for series_name in SERIES:
            series = getattr(bundle, series_name)
            lines.append(f"{name}/{series_name}/{len(series)}")
            lines.extend(float(t).hex() for t in series.times_array())
            lines.extend(float(v).hex() for v in series.values_array())
    lines.extend(float(t).hex() for t in telemetry.environment.times_array())
    lines.extend(float(v).hex() for v in telemetry.environment.values_array())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _storm_sim(use_fleet_engine: bool):
    scenario = migration_storm_scenario(
        n_servers=12, storm_start_s=120.0, storm_window_s=240.0, duration_s=600.0
    )
    sim = build_fleet_simulation(scenario, use_fleet_engine=use_fleet_engine)
    _with_probe(sim)
    sim.run(scenario.duration_s)
    return sim


STORM_DIGEST = (
    "6c8126bc3ee698179e96175d615bd3079f33a48c3d6d2c50a3b5fb3ac11bb440"
)


def test_soa_body_pinned():
    sim = _storm_sim(use_fleet_engine=True)
    assert sim.step_columns is not None
    assert _telemetry_digest(sim) == STORM_DIGEST


def test_reference_body_pinned():
    assert _telemetry_digest(_storm_sim(use_fleet_engine=False)) == STORM_DIGEST


def _join(name: str, level: float):
    def event(s):
        server = Server(make_server_spec(name=name))
        server.host_vm(make_vm(f"{name}-vm", vcpus=4, level=level), time_s=s.time_s)
        s.cluster.add_server(server)

    return event


def test_partially_sampled_steps_pinned():
    sim = build_fleet_simulation(
        class_balanced_fleet_scenario(
            n_classes=2, servers_per_class=4, seed=43_700, duration_s=600.0
        )
    )
    partial = []
    _with_probe(sim)
    sim.schedule(FunctionEvent(32.5, _join("late-joiner", 0.7)))
    sim.add_probe(
        lambda s, t: partial.append(
            0 < s.step_columns.sampled.size < len(s.cluster.servers)
        )
    )
    sim.run(600.0)
    assert sum(partial) > 10
    assert _telemetry_digest(sim) == (
        "695539849583df4d2d9ddcaae30ffb8f2e7e89d41a4ab374d3f09da2be14aafa"
    )


def test_membership_change_pinned():
    sim = build_fleet_simulation(
        class_balanced_fleet_scenario(
            n_classes=2, servers_per_class=3, seed=43_800, duration_s=600.0
        )
    )
    _with_probe(sim)
    first = sim.cluster.servers[0].name
    sim.schedule(FunctionEvent(200.0, _join("joiner-a", 0.5)))
    sim.schedule(FunctionEvent(200.0, _join("joiner-b", 0.9)))
    sim.schedule(
        FunctionEvent(350.0, lambda s: s.cluster.server(first).set_fan_speed(1.0))
    )
    sim.schedule(
        FunctionEvent(
            420.0, lambda s: s.cluster.server("joiner-a").set_fan_count(6)
        )
    )
    sim.run(600.0)
    assert len(sim.telemetry.server_names) == 8
    assert _telemetry_digest(sim) == (
        "f4202971d118369b61ae5a64004f69dbff6f5a2e575a6506c84c70c14c61a150"
    )


def test_warm_up_start_pinned():
    sim = build_fleet_simulation(
        class_balanced_fleet_scenario(
            n_classes=2, servers_per_class=3, seed=43_900, duration_s=600.0
        )
    )
    _with_probe(sim)
    sim.warm_up(300.0)
    assert sim.telemetry.server_names == []
    sim.run(400.0)
    assert _telemetry_digest(sim) == (
        "e1ed5166e732a735a577895910024d0f52ecde714d4bd506d31736c57e55d18d"
    )


def test_retrain_plans_pinned():
    sim = build_fleet_simulation(
        model_drift_scenario(
            n_classes=2, servers_per_class=4, seed=44_000, duration_s=1500.0
        )
    )
    fleet = _with_probe(sim)
    planner = RetrainPlanner(
        RetrainPlannerConfig(window_s=300.0, min_samples=20, min_class_records=2)
    )
    plans = []
    sim.add_probe(
        lambda s, t: plans.append(
            planner.plan(t, sorted(set(fleet.model_keys)), s, fleet)
        ),
        interval_s=240.0,
    )
    sim.run(1500.0)
    assert sum(plan.n_records for plan in plans) > 0
    text = "\n".join(repr((plan.classes, plan.skipped)) for plan in plans)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36ddcc397b8c5351da7c6c129758e608e38d9994a1a98f9775c2c656130fe852"
    )
