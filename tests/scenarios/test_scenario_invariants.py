"""Unit tests for the end-to-end scenario invariant harness."""

import pytest

from repro.datacenter.server import ResourceCapacity, ServerSpec
from repro.datacenter.vm import VmSpec
from repro.datacenter.workload import ConstantTask
from repro.errors import InvariantViolationError
from repro.experiments.scenarios import FleetScenario
from repro.scenarios import (
    assert_invariants,
    class_balanced_fleet_spec,
    compile_spec,
    cooling_failure_spec,
    diurnal_fleet_spec,
    flash_crowd_spec,
    migration_storm_spec,
    model_drift_spec,
    run_with_invariants,
    thermal_cascade_spec,
)
from repro.thermal.environment import ConstantEnvironment


def _flash_crowd(n=6, duration_s=900.0):
    return compile_spec(flash_crowd_spec(
        n_servers=n, duration_s=duration_s, spike_time_s=300.0
    ))


class TestCleanRuns:
    def test_flash_crowd_passes_all_invariants(self):
        report = run_with_invariants(_flash_crowd())
        assert report.ok
        assert report.violations == ()
        assert report.checks > 0
        assert report.events_fired >= 4  # the spike's four arrivals
        assert report.n_servers == 6
        assert report.pue is not None and report.pue >= 1.0
        assert report.it_energy_kwh > 0.0
        assert report.cooling_energy_kwh > 0.0
        assert "ok" in report.summary()

    def test_scalar_engine_path_also_clean(self):
        report = run_with_invariants(_flash_crowd(n=4), use_fleet_engine=False)
        assert report.ok, report.violations

    def test_assert_invariants_helper(self):
        report = assert_invariants(_flash_crowd(n=4))
        assert report.ok


#: Every library spec at small size and short duration; each keeps its
#: timeline events (failure, spike, storm, ramp and waves) inside the run.
LIBRARY_SMALL = {
    "diurnal_fleet": (diurnal_fleet_spec, dict(n_servers=6, duration_s=600.0)),
    "class_balanced_fleet": (
        class_balanced_fleet_spec,
        dict(n_classes=2, servers_per_class=3, duration_s=600.0),
    ),
    "model_drift": (
        model_drift_spec,
        dict(n_classes=2, servers_per_class=3, duration_s=1200.0),
    ),
    "migration_storm": (
        migration_storm_spec,
        dict(n_servers=6, storm_start_s=60.0, storm_window_s=60.0,
             duration_s=600.0),
    ),
    "cooling_failure": (
        cooling_failure_spec,
        dict(n_servers=6, failure_time_s=200.0, duration_s=600.0),
    ),
    "thermal_cascade": (thermal_cascade_spec,
                        dict(n_servers=8, duration_s=600.0)),
    "flash_crowd": (
        flash_crowd_spec,
        dict(n_servers=6, spike_time_s=200.0, duration_s=600.0),
    ),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_SMALL))
def test_library_spec_runs_clean(name):
    spec, kwargs = LIBRARY_SMALL[name]
    scenario = compile_spec(spec(**kwargs))
    report = run_with_invariants(scenario, check_interval_s=60.0)
    assert report.ok, report.violations
    assert report.checks > 0
    assert report.events_fired >= len(scenario.arrivals) + len(
        scenario.migrations
    )


class TestViolationCapture:
    """The harness reports faults instead of crashing the sweep."""

    @staticmethod
    def _doomed_scenario():
        # An arrival too big for its server: FleetScenario's validator
        # only checks names and timing, so the fault fires at runtime —
        # exactly what the harness must catch, not propagate.
        server = ServerSpec(
            name="server-000",
            capacity=ResourceCapacity(cpu_cores=8, ghz_per_core=2.4,
                                      memory_gb=16.0),
            fan_count=2,
            fan_speed=0.7,
        )
        resident = VmSpec(name="resident", vcpus=2, memory_gb=12.0,
                          tasks=(ConstantTask(level=0.5),))
        whale = VmSpec(name="whale", vcpus=2, memory_gb=12.0,
                       tasks=(ConstantTask(level=0.5),))
        return FleetScenario(
            name="doomed",
            server_specs=(server,),
            vm_specs=((resident,),),
            environment=ConstantEnvironment(22.0),
            duration_s=300.0,
            arrivals=((60.0, "server-000", whale),),
        )

    def test_runtime_fault_becomes_violation(self):
        report = run_with_invariants(self._doomed_scenario())
        assert not report.ok
        assert any("runtime error" in v for v in report.violations)
        assert "violation" in report.summary()

    def test_strict_raises_with_the_report_text(self):
        with pytest.raises(InvariantViolationError, match="runtime error"):
            run_with_invariants(self._doomed_scenario(), strict=True)
        with pytest.raises(InvariantViolationError):
            assert_invariants(self._doomed_scenario())


class TestLedgerConsistency:
    def test_energy_ledger_fields_cross_check(self):
        report = run_with_invariants(_flash_crowd(n=4), check_interval_s=30.0)
        assert report.ok
        # PUE is (IT + cooling) / IT, so the three reported numbers must
        # agree with each other to float precision.
        assert report.pue == pytest.approx(
            (report.it_energy_kwh + report.cooling_energy_kwh)
            / report.it_energy_kwh
        )
