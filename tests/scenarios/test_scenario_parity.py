"""Guard parity: the library specs reject what their builders reject.

Every fleet builder compiles a document of :mod:`repro.scenarios.library`,
so the spec functions are where arguments are validated; these tests
pin that they reject bad arguments before any document is compiled,
that each builder takes exactly its spec's parameters, in order, with
the same defaults, and that :mod:`repro.experiments.scenarios` forwards
each builder name to the library's builder.
Output parity with the builders the documents replaced is pinned by the
golden digests in ``test_scenario_golden.py``.
"""

import inspect

import pytest

from repro.errors import ScenarioSpecError
from repro.experiments import scenarios
from repro.scenarios import (
    compile_spec,
    cooling_failure_spec,
    flash_crowd_spec,
    library,
)


class TestGuardParity:
    """The spec builders reject out-of-range arguments."""

    def test_cooling_failure_guards(self):
        with pytest.raises(ScenarioSpecError):
            cooling_failure_spec(n_servers=1)
        with pytest.raises(ScenarioSpecError):
            cooling_failure_spec(hot_fraction=1.5)
        with pytest.raises(ScenarioSpecError):
            cooling_failure_spec(failure_time_s=5000.0, duration_s=3600.0)
        with pytest.raises(ScenarioSpecError):
            cooling_failure_spec(failure_time_s=600.0, recovery_time_s=500.0)

    def test_flash_crowd_guards(self):
        with pytest.raises(ScenarioSpecError):
            flash_crowd_spec(n_servers=1)
        with pytest.raises(ScenarioSpecError):
            flash_crowd_spec(spike_time_s=5000.0, duration_s=3600.0)
        for hot_fraction in (1.5, -1.0):
            with pytest.raises(ScenarioSpecError, match="hot_fraction"):
                flash_crowd_spec(n_servers=8, hot_fraction=hot_fraction)


WRAPPED_SPECS = (
    "diurnal_fleet",
    "class_balanced_fleet",
    "model_drift",
    "migration_storm",
    "cooling_failure",
    "thermal_cascade",
    "flash_crowd",
)


class TestSignatureParity:
    """Each fleet builder repeats its spec's parameter list; pin them equal."""

    @pytest.mark.parametrize("name", WRAPPED_SPECS)
    def test_builder_parameters_match_spec(self, name):
        builder = inspect.signature(getattr(scenarios, f"{name}_scenario"))
        spec = inspect.signature(getattr(library, f"{name}_spec"))
        assert [
            (p.name, p.kind, p.default) for p in builder.parameters.values()
        ] == [(p.name, p.kind, p.default) for p in spec.parameters.values()]


#: Small positional arguments per builder: sizes first, then the seed.
SMALL_ARGS = {
    "diurnal_fleet": (4, 7),
    "class_balanced_fleet": (2, 2, 7),
    "model_drift": (2, 2, 7),
    "migration_storm": (4, 7),
    "cooling_failure": (4, 7),
    "thermal_cascade": (8, 7),
    "flash_crowd": (4, 7),
}


class TestBuilderForwarding:
    """``repro.experiments.scenarios`` serves the library's builders."""

    @pytest.mark.parametrize("name", WRAPPED_SPECS)
    def test_attribute_and_from_import_agree(self, name):
        namespace: dict = {}
        exec(
            f"from repro.experiments.scenarios import {name}_scenario",
            namespace,
        )
        assert namespace[f"{name}_scenario"] is getattr(
            scenarios, f"{name}_scenario"
        )

    @pytest.mark.parametrize("name", WRAPPED_SPECS)
    def test_names_resolve_to_library_builders(self, name):
        assert getattr(scenarios, f"{name}_scenario") is getattr(
            library, f"{name}_scenario"
        )

    @pytest.mark.parametrize("name", WRAPPED_SPECS)
    def test_positional_and_keyword_calls_compile_the_spec(self, name):
        builder = getattr(scenarios, f"{name}_scenario")
        spec = getattr(library, f"{name}_spec")
        args = SMALL_ARGS[name]
        keywords = dict(zip(inspect.signature(spec).parameters, args))
        positional = builder(*args)
        assert positional.seed == 7
        assert positional == builder(**keywords)
        assert positional == compile_spec(spec(*args))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_scenario"):
            scenarios.no_such_scenario
        with pytest.raises(ImportError):
            exec("from repro.experiments.scenarios import no_such_scenario", {})
