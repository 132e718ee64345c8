"""Unit tests for the declarative spec grammar and its compiler."""

import pytest

from repro.errors import ScenarioSpecError
from repro.rng import RngFactory
from repro.scenarios import compile_spec, parse_offset, sample_value
from repro.thermal.environment import (
    ConstantEnvironment,
    SteppedEnvironment,
)


def _base_doc(**overrides):
    """A small valid document the individual tests mutate."""
    doc = {
        "name": "unit",
        "seed": 11,
        "duration": 900.0,
        "servers": [{"type": "stress", "count": 3}],
        "placements": [
            {
                "servers": "all",
                "vms": [
                    {
                        "name": "web-{server_index}",
                        "type": "c5.large",
                        "tasks": [{"constant": 0.4}],
                    }
                ],
            }
        ],
        "environment": {"constant": 22.0},
        "timeline": [],
    }
    doc.update(overrides)
    return doc


class TestParseOffset:
    def test_units(self):
        assert parse_offset(600) == 600.0
        assert parse_offset(12.5) == 12.5
        assert parse_offset("+2h") == 7200.0
        assert parse_offset("30m") == 1800.0
        assert parse_offset("+45s") == 45.0
        assert parse_offset("500ms") == 0.5
        assert parse_offset("1d") == 86400.0
        assert parse_offset("-90s") == -90.0

    def test_rejects_garbage(self):
        for bad in ("2 hours", "h2", "", True, None, [600]):
            with pytest.raises(ScenarioSpecError):
                parse_offset(bad)


class TestSampleValue:
    def test_literals_pass_through_without_draws(self):
        rng = RngFactory(1).stream("s")
        assert sample_value(3, rng, "p") == 3
        assert sample_value(0.25, rng, "p") == 0.25
        assert sample_value({"value": 9.0}, rng, "p") == 9.0
        # No draw consumed: a fresh stream produces the same next sample.
        fresh = RngFactory(1).stream("s")
        assert rng.uniform(0.0, 1.0) == fresh.uniform(0.0, 1.0)

    def test_distributions_deterministic_per_stream(self):
        def draw():
            rng = RngFactory(5).stream("s")
            return (
                sample_value({"uniform": [0.0, 1.0]}, rng, "p"),
                sample_value({"randint": [1, 6]}, rng, "p"),
                sample_value({"choice": ["a", "b", "c"]}, rng, "p"),
                sample_value(
                    {"normal": {"mean": 10.0, "std": 2.0, "min": 9.0,
                                "max": 11.0}},
                    rng, "p",
                ),
            )

        first, second = draw(), draw()
        assert first == second
        assert 0.0 <= first[0] <= 1.0
        assert first[1] in range(1, 7)
        assert first[2] in ("a", "b", "c")
        assert 9.0 <= first[3] <= 11.0

    def test_rejects_multi_key_and_unknown(self):
        rng = RngFactory(1).stream("s")
        with pytest.raises(ScenarioSpecError):
            sample_value({"uniform": [0, 1], "choice": [1]}, rng, "p")
        with pytest.raises(ScenarioSpecError):
            sample_value({"lognormal": [0, 1]}, rng, "p")
        with pytest.raises(ScenarioSpecError):
            sample_value({"uniform": [2.0, 1.0]}, rng, "p")


class TestCompileBasics:
    def test_compiles_onto_fleet_scenario(self):
        scenario = compile_spec(_base_doc())
        assert scenario.name == "unit"
        assert scenario.seed == 11
        assert scenario.n_servers == 3
        assert scenario.n_vms == 3
        assert [s.name for s in scenario.server_specs] == [
            "server-000", "server-001", "server-002",
        ]
        assert scenario.vm_specs[1][0].name == "web-1"
        assert isinstance(scenario.environment, ConstantEnvironment)

    def test_deterministic(self):
        assert compile_spec(_base_doc()) == compile_spec(_base_doc())

    def test_inline_hardware_and_selectors(self):
        doc = _base_doc(
            servers=[
                {"type": "stress", "count": 2},
                {"cpu_cores": 8, "ghz_per_core": 2.0, "memory_gb": 32.0,
                 "name": "edge-{index:03d}"},
            ],
            placements=[
                {
                    "servers": {"names": ["edge-002"]},
                    "vms": [{"name": "cache", "vcpus": 2, "memory_gb": 4.0,
                             "tasks": [{"constant": 0.2}]}],
                }
            ],
        )
        scenario = compile_spec(doc)
        assert scenario.server_specs[2].name == "edge-002"
        assert scenario.server_specs[2].capacity.cpu_cores == 8
        assert scenario.vm_specs == ((), (), (scenario.vm_specs[2][0],))

    def test_duplicate_vm_names_rejected(self):
        doc = _base_doc()
        doc["placements"][0]["vms"][0]["name"] = "same-everywhere"
        with pytest.raises(ScenarioSpecError, match="duplicate VM name"):
            compile_spec(doc)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown key"):
            compile_spec(_base_doc(migrations=[]))


class TestBrokenSpecs:
    """The three deliberately broken documents pinned by the issue."""

    def test_overcommitted_server_names_the_constraint(self):
        # 5 r5.2xlarge (64 GiB each) cannot fit a 64 GiB stress box.
        doc = _base_doc()
        doc["placements"] = [
            {
                "servers": "all",
                "vms": [{"name": "big-{server_index}-{vm_index}",
                         "type": "r5.2xlarge",
                         "tasks": [{"constant": 0.3}], "count": 5}],
            }
        ]
        with pytest.raises(ScenarioSpecError) as err:
            compile_spec(doc)
        message = str(err.value)
        assert "overcommitted on memory" in message
        assert "hard admission constraint" in message
        assert "server-000" in message

    def test_overcommitted_vcpus_names_the_overcommit_math(self):
        # 9 x 4 vCPUs = 36 > 16 cores x 2.0 overcommit, within memory.
        doc = _base_doc()
        doc["placements"] = [
            {
                "servers": "all",
                "vms": [{"name": "cpu-{server_index}-{vm_index}", "vcpus": 4,
                         "memory_gb": 2.0, "tasks": [{"constant": 0.3}],
                         "count": 9}],
            }
        ]
        with pytest.raises(ScenarioSpecError) as err:
            compile_spec(doc)
        message = str(err.value)
        assert "overcommitted on vCPUs" in message
        assert "16 cores x 2.0 overcommit" in message

    def test_negative_duration_offset_rejected_precisely(self):
        with pytest.raises(ScenarioSpecError) as err:
            compile_spec(_base_doc(duration="-2h"))
        message = str(err.value)
        assert "spec.duration" in message
        assert "negative duration offset" in message

    def test_unknown_catalog_hardware_key_rejected_precisely(self):
        doc = _base_doc(servers=[{"type": "m5.gonzo", "count": 2}])
        with pytest.raises(ScenarioSpecError) as err:
            compile_spec(doc)
        message = str(err.value)
        assert "unknown catalog hardware type 'm5.gonzo'" in message
        assert "stress" in message  # the known keys are listed


class TestTimeline:
    def test_offsets_and_event_ordering(self):
        doc = _base_doc(timeline=[
            {"at": "+10m", "ambient_step": 26.0},
            {"at": "+5m", "cooling_derate": 3.0},
        ])
        env = compile_spec(doc).environment
        assert isinstance(env, SteppedEnvironment)
        # Chronological fold: derate applies to the 22.0 base at 300 s,
        # the absolute step overrides at 600 s.
        assert env.temperature(299.0) == pytest.approx(22.0)
        assert env.temperature(300.0) == pytest.approx(25.0)
        assert env.temperature(600.0) == pytest.approx(26.0)

    def test_arrival_spacing_and_conditional_when(self):
        doc = _base_doc(timeline=[
            {
                "at": 300.0,
                "arrival": {
                    "servers": {"range": [0, 2]},
                    "count": 2,
                    "spacing": "+30s",
                    "when": {"min_free_memory_gb": 1.0},
                    "vm": {"name": "burst-{server_index}-{vm_index}",
                           "type": "t3.small",
                           "tasks": [{"constant": {"uniform": [0.5, 0.7]}}]},
                },
            },
        ])
        scenario = compile_spec(doc)
        assert [(t, s) for t, s, _ in scenario.arrivals] == [
            (300.0, "server-000"), (330.0, "server-000"),
            (300.0, "server-001"), (330.0, "server-001"),
        ]
        assert scenario.arrivals[0][2].name == "burst-0-0"

    def test_arrival_past_end_would_silently_never_fire(self):
        doc = _base_doc(timeline=[
            {"at": 900.0, "arrival": {
                "servers": 0,
                "vm": {"name": "late", "type": "t3.micro", "tasks": []},
            }},
        ])
        with pytest.raises(ScenarioSpecError, match="silently never fire"):
            compile_spec(doc)

    def test_negative_event_offset_rejected(self):
        doc = _base_doc(timeline=[{"at": "-5m", "ambient_step": 25.0}])
        with pytest.raises(ScenarioSpecError, match="cannot precede"):
            compile_spec(doc)

    def test_migration_of_initially_placed_vm(self):
        doc = _base_doc(timeline=[
            {"at": 120.0, "migrate": {"vm": "web-0", "to": "server-002"}},
        ])
        scenario = compile_spec(doc)
        assert scenario.migrations == ((120.0, "web-0", "server-002"),)

    def test_migration_of_arrival_vm_rejected_with_reason(self):
        doc = _base_doc(timeline=[
            {"at": 100.0, "arrival": {
                "servers": 0,
                "vm": {"name": "late-0", "type": "t3.micro",
                       "tasks": [{"constant": 0.2}]},
            }},
            {"at": 200.0, "migrate": {"vm": "late-0", "to": "server-001"}},
        ])
        with pytest.raises(ScenarioSpecError,
                           match="mid-run arrivals cannot be migrated"):
            compile_spec(doc)

    def test_headroom_exhaustion_errors_unless_drop_requested(self):
        arrival = {
            "servers": 0,
            "count": 20,
            "vm": {"name": "fat-{vm_index}", "type": "r5.2xlarge",
                   "tasks": [{"constant": 0.3}]},
        }
        doc = _base_doc(timeline=[{"at": 100.0, "arrival": dict(arrival)}])
        with pytest.raises(ScenarioSpecError, match="lacks committed headroom"):
            compile_spec(doc)
        relaxed = dict(arrival, require_headroom=True)
        scenario = compile_spec(_base_doc(
            timeline=[{"at": 100.0, "arrival": relaxed}]
        ))
        # 64 GiB box with one 4 GiB web VM fits 0 of the 64 GiB arrivals
        # after the first... exactly those that fit were kept.
        assert all(vm.memory_gb == 64.0 for _, _, vm in scenario.arrivals)
        assert len(scenario.arrivals) < 20

    def test_ambient_events_on_sinusoidal_base_rejected(self):
        doc = _base_doc(
            environment={"sinusoidal": {"mean": 22.0, "amplitude": 2.0,
                                        "period": "+1d"}},
            timeline=[{"at": 100.0, "ambient_step": 25.0}],
        )
        with pytest.raises(ScenarioSpecError, match="sinusoidal"):
            compile_spec(doc)


class TestGenerators:
    """Hardware distributions, class groups, sampled counts, one_of,
    key-order VM draws, the amplitude cap and the vCPU clamp."""

    @staticmethod
    def _vm_doc(**fields):
        return _base_doc(placements=[{"servers": "all", "vms": [
            dict({"name": "vm-{server_index}-{vm_index}"}, **fields)
        ]}])

    def test_hardware_distributions_draw_per_server_in_field_order(self):
        doc = _base_doc(
            servers=[{"count": 3, "cpu_cores": {"choice": [8, 16, 32]},
                      "ghz_per_core": 2.4, "memory_gb": 128.0,
                      "fan_speed": {"uniform": [0.5, 0.9]}}],
        )
        hw = RngFactory(11).stream("hardware")
        expected = []
        for _ in range(3):
            cores = hw.choice([8, 16, 32])
            expected.append((cores, hw.uniform(0.5, 0.9)))
        scenario = compile_spec(doc)
        assert [(s.capacity.cpu_cores, s.fan_speed)
                for s in scenario.server_specs] == expected

    def test_classes_group_emits_each_servers_per_shuffled_combination(self):
        group = {"classes": 3, "each": 2, "ghz_per_core": 2.4,
                 "cpu_cores": {"choice": [8, 16]},
                 "memory_gb": {"choice": [64.0, 128.0]},
                 "fan_count": {"choice": [2, 4]}}
        scenario = compile_spec(_base_doc(servers=[group]))
        combos = [(c, m, f) for c in (8, 16) for m in (64.0, 128.0)
                  for f in (2, 4)]
        RngFactory(11).stream("classes").shuffle(combos)
        got = [(s.capacity.cpu_cores, s.capacity.memory_gb, s.fan_count)
               for s in scenario.server_specs]
        assert got == [combo for combo in combos[:3] for _ in range(2)]

    def test_classes_group_errors(self):
        base = {"ghz_per_core": 2.4, "cpu_cores": {"choice": [8, 16]},
                "memory_gb": 64.0}
        for group, message in (
            (dict(base, classes=3), "exceed the 2 distinct"),
            (dict(base, classes=2, count=4), "not 'count'"),
            (dict(base, count=2, each=2), "only valid with 'classes'"),
        ):
            with pytest.raises(ScenarioSpecError, match=message):
                compile_spec(_base_doc(servers=[group]))

    def test_vm_fields_draw_in_document_key_order(self):
        fields = {"vcpus": {"randint": [1, 4]},
                  "memory_gb": {"uniform": [2.0, 8.0]}}
        forward = compile_spec(self._vm_doc(**fields)).vm_specs[0][0]
        backward = compile_spec(self._vm_doc(
            **dict(reversed(list(fields.items())))
        )).vm_specs[0][0]
        rng = RngFactory(11).stream("vms/0")
        assert forward.vcpus == rng.randint(1, 4)
        assert forward.memory_gb == rng.uniform(2.0, 8.0)
        rng = RngFactory(11).stream("vms/0")
        assert backward.memory_gb == rng.uniform(2.0, 8.0)
        assert backward.vcpus == rng.randint(1, 4)

    def test_sampled_count_and_one_of(self):
        doc = self._vm_doc(
            count={"randint": [1, 3]}, vcpus=1, memory_gb=1.0,
            tasks=[{"one_of": [{"constant": 0.1}, {"constant": 0.9}]}],
        )
        scenario = compile_spec(doc)
        for i, vms in enumerate(scenario.vm_specs):
            rng = RngFactory(11).stream(f"vms/{i}")
            assert len(vms) == rng.randint(1, 3)
            for vm in vms:
                level = (0.1, 0.9)[rng.choice([0, 1])]
                assert vm.tasks[0].level == level
        with pytest.raises(ScenarioSpecError, match="one_of"):
            compile_spec(self._vm_doc(vcpus=1, memory_gb=1.0, tasks=[
                {"one_of": [], "count": 2}
            ]))

    def test_periodic_amplitude_upper_bound_is_capped(self):
        task = {"periodic": {"mean": 0.1,
                             "amplitude": {"uniform": [0.05, 0.3]}}}
        scenario = compile_spec(self._vm_doc(vcpus=1, memory_gb=1.0,
                                             tasks=[task] * 20))
        amplitudes = [t.amplitude for vms in scenario.vm_specs
                      for vm in vms for t in vm.tasks]
        assert max(amplitudes) <= 0.1
        task["periodic"]["amplitude"] = {"uniform": [0.2, 0.3]}
        with pytest.raises(ScenarioSpecError, match="exceeds the cap"):
            compile_spec(self._vm_doc(vcpus=1, memory_gb=1.0, tasks=[task]))

    def test_clamp_vcpus_fills_the_limit_then_stops(self):
        doc = self._vm_doc(count=3, vcpus=12, memory_gb=1.0)
        with pytest.raises(ScenarioSpecError, match="overcommitted on vCPUs"):
            compile_spec(doc)
        doc["placements"][0]["clamp_vcpus"] = True
        scenario = compile_spec(doc)  # stress SKU: 16 cores x 2 = 32 vCPUs
        assert [[vm.vcpus for vm in vms] for vms in scenario.vm_specs] == [
            [12, 12, 8]
        ] * 3
        doc["placements"][0]["vms"][0]["count"] = 5
        scenario = compile_spec(doc)
        assert all(len(vms) == 3 for vms in scenario.vm_specs)
