"""Declarative scenario layer: spec documents, catalog, fuzzer, invariants.

The scenario path (see ``docs/architecture.md``):

1. a plain-dict **spec** (:mod:`repro.scenarios.spec`) referencing the
   hardware/VM-type **catalog** (:mod:`repro.scenarios.catalog`) — one
   of the seven fleet scenarios of the **library**
   (:mod:`repro.scenarios.library`, which also binds each spec to its
   ``*_scenario`` builder), a fuzzed document, or a user's own — is
2. compiled deterministically onto the existing
   :class:`~repro.experiments.scenarios.FleetScenario`, which
3. :func:`~repro.experiments.scenarios.build_fleet_simulation` runs
   unchanged, optionally under the **invariant harness**
   (:mod:`repro.scenarios.invariants`); and
4. the seeded **fuzzer** (:mod:`repro.scenarios.fuzzer`) samples the
   grammar to stress every layer with hundreds of valid scenarios.
"""

from repro.scenarios.catalog import (
    Catalog,
    HardwareType,
    VmType,
    default_catalog,
)
from repro.scenarios.fuzzer import ScenarioFuzzer
from repro.scenarios.invariants import (
    InvariantReport,
    assert_invariants,
    run_with_invariants,
)
from repro.scenarios.library import (
    class_balanced_fleet_spec,
    cooling_failure_spec,
    diurnal_fleet_spec,
    flash_crowd_spec,
    migration_storm_spec,
    model_drift_spec,
    thermal_cascade_spec,
)
from repro.scenarios.spec import compile_spec, parse_offset, sample_value

__all__ = [
    "Catalog",
    "HardwareType",
    "InvariantReport",
    "ScenarioFuzzer",
    "VmType",
    "assert_invariants",
    "class_balanced_fleet_spec",
    "compile_spec",
    "cooling_failure_spec",
    "default_catalog",
    "diurnal_fleet_spec",
    "flash_crowd_spec",
    "migration_storm_spec",
    "model_drift_spec",
    "parse_offset",
    "run_with_invariants",
    "sample_value",
    "thermal_cascade_spec",
]
