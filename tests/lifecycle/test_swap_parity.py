"""Swap-parity suite: a no-op hot-swap is bitwise invisible.

The registry's swap contract: publishing a new model version must not
disturb in-flight serving state. The sharpest test is a *no-op* swap —
swapping in a bit-identical retrained model mid-run must leave every
subsequent fleet forecast bit-identical to the never-swapped run:
calibration state, Δ_update deadlines, and γ all survive the swap
untouched, and ψ_stable re-queries (retargets) through the new entry
return the exact same bits.
"""

import numpy as np
import pytest

from repro.control import run_closed_loop
from repro.core.stable import StableTemperaturePredictor
from repro.experiments.scenarios import diurnal_fleet_scenario
from repro.serving import ModelRegistry, PredictionFleet
from tests.conftest import make_record


def training_records():
    return [
        make_record(psi=40.0 + 2.5 * i, n_vms=2 + i % 6, util=0.2 + 0.05 * i)
        for i in range(12)
    ]


def fitted_predictor():
    """Deterministic training: every call returns a bit-identical model."""
    return StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1).fit(
        training_records()
    )


def build_fleet():
    registry = ModelRegistry()
    registry.register("default", fitted_predictor())
    fleet = PredictionFleet(registry)
    fleet.track(
        ["a", "b", "c"],
        [make_record(psi=None, n_vms=2 + i) for i in range(3)],
        np.zeros(3),
        np.array([40.0, 44.0, 48.0]),
    )
    return registry, fleet


def drive(fleet, times):
    """Observe + forecast a deterministic measurement sequence."""
    out = []
    for t in times:
        measured = np.array([50.0, 55.0, 60.0]) + 0.01 * t
        fleet.observe(np.full(3, t), measured)
        out.append(fleet.predict_ahead(np.full(3, t))[1].copy())
    return out


class TestFleetLevelSwapParity:
    def test_noop_swap_leaves_all_subsequent_state_bitwise_identical(self):
        reg_a, fleet_a = build_fleet()
        reg_b, fleet_b = build_fleet()
        first = [20.0, 40.0, 65.0, 90.0]
        tail = [120.0, 150.0, 200.0, 260.0, 333.0]

        before_a = drive(fleet_a, first)
        before_b = drive(fleet_b, first)
        for x, y in zip(before_a, before_b):
            assert np.array_equal(x, y)

        # Mid-run: swap in a bit-identical retrained model (B only).
        entry = reg_b.swap("default", fitted_predictor())
        assert entry.version == 2

        after_a = drive(fleet_a, tail)
        after_b = drive(fleet_b, tail)
        for x, y in zip(after_a, after_b):
            assert np.array_equal(x, y)
        assert np.array_equal(fleet_a.gamma, fleet_b.gamma)
        assert np.array_equal(fleet_a._next_update, fleet_b._next_update)
        assert np.array_equal(fleet_a._phi0, fleet_b._phi0)
        assert np.array_equal(fleet_a._psi, fleet_b._psi)

    def test_retarget_after_noop_swap_returns_identical_psi(self):
        reg_a, fleet_a = build_fleet()
        reg_b, fleet_b = build_fleet()
        drive(fleet_a, [30.0, 60.0])
        drive(fleet_b, [30.0, 60.0])
        reg_b.swap("default", fitted_predictor())

        record = make_record(psi=None, n_vms=7)
        psi_a = fleet_a.retarget(
            ["b"], [record], np.array([90.0]), np.array([57.0])
        )
        psi_b = fleet_b.retarget(
            ["b"], [record], np.array([90.0]), np.array([57.0])
        )
        assert np.array_equal(psi_a, psi_b)
        # And the post-retarget forecasts stay in lockstep.
        after_a = drive(fleet_a, [100.0, 130.0, 700.0])
        after_b = drive(fleet_b, [100.0, 130.0, 700.0])
        for x, y in zip(after_a, after_b):
            assert np.array_equal(x, y)


class NoOpSwapLifecycle:
    """Sixth stage that hot-swaps every model with itself each interval."""

    def __init__(self, registry):
        self.registry = registry
        self.swaps = 0

    def step(self, sim, time_s, fleet, errors):
        for key in self.registry.keys():
            if not self.registry.is_alias(key):
                entry = self.registry.resolve(key)
                self.registry.swap_model(key, entry.model)
                self.swaps += 1
        return None


class TestClosedLoopSwapParity:
    @pytest.fixture(scope="class")
    def runs(self):
        scenario = diurnal_fleet_scenario(
            n_servers=6, seed=61_000, duration_s=1500.0
        )

        def run(with_noop_lifecycle):
            registry = ModelRegistry()
            registry.register("default", fitted_predictor())
            lifecycle = (
                NoOpSwapLifecycle(registry) if with_noop_lifecycle else None
            )
            result = run_closed_loop(
                scenario, registry, policy=None, lifecycle=lifecycle
            )
            return result, lifecycle

        plain, _ = run(False)
        swapped, lifecycle = run(True)
        assert lifecycle.swaps > 0
        return plain, swapped

    def test_every_forecast_bit_identical(self, runs):
        plain, swapped = runs
        for server in plain.simulation.cluster.servers:
            a = plain.simulation.telemetry.for_server(server.name)
            b = swapped.simulation.telemetry.for_server(server.name)
            assert np.array_equal(
                a.predicted_cpu_temperature.values_array(),
                b.predicted_cpu_temperature.values_array(),
            )
            assert np.array_equal(
                a.predicted_cpu_temperature.times_array(),
                b.predicted_cpu_temperature.times_array(),
            )

    def test_calibration_state_bit_identical(self, runs):
        plain, swapped = runs
        assert np.array_equal(plain.fleet.gamma, swapped.fleet.gamma)
        assert np.array_equal(
            plain.fleet._next_update, swapped.fleet._next_update
        )

    def test_ledgers_identical(self, runs):
        plain, swapped = runs
        rows_a = [
            (r.time_s, r.predicted_hotspot_names, r.forecast_error_c)
            for r in plain.ledger.records
        ]
        rows_b = [
            (r.time_s, r.predicted_hotspot_names, r.forecast_error_c)
            for r in swapped.ledger.records
        ]
        assert len(rows_a) > 0

        def canon(rows):
            return [
                (t, names, "nan" if np.isnan(e) else e) for t, names, e in rows
            ]

        assert canon(rows_a) == canon(rows_b)

    def test_swapped_registry_really_revved(self, runs):
        _, swapped = runs
        assert swapped.plane.lifecycle.registry.current_version("default") > 1
