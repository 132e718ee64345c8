"""Golden digests: every library fleet scenario and the fuzzer corpus.

Each digest is ``sha256(repr(FleetScenario))`` — the repr spells out
every server spec, VM spec, task, environment step, arrival and
migration, and carries no memory addresses. The fleet digests were
recorded from the hand-coded builders the library documents replaced,
so they pin the documents to those builders' output bit for bit. The
fuzzer digests pin that growing the spec grammar changes no existing
document's compilation.
"""

import hashlib

import pytest

from repro.experiments.scenarios import (
    class_balanced_fleet_scenario,
    cooling_failure_scenario,
    diurnal_fleet_scenario,
    flash_crowd_scenario,
    migration_storm_scenario,
    model_drift_scenario,
    thermal_cascade_scenario,
)
from repro.scenarios import ScenarioFuzzer


def _digest(scenario) -> str:
    text = repr(scenario)
    assert " at 0x" not in text  # no memory addresses in the pinned repr
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: case -> (builder, keyword arguments, digest). The ``clamp`` cases
#: are fleets where the diurnal mix's vCPU clamp engages.
FLEET_DIGESTS = {
    "diurnal_default": (
        diurnal_fleet_scenario,
        {},
        "f21d072631af5a0509266b6eae75ab056447d2534c0151c8856192a8990008dd",
    ),
    "diurnal_custom": (
        diurnal_fleet_scenario,
        dict(n_servers=24, seed=4321, vms_per_server=(1, 6),
             duration_s=1800.0),
        "4fffa9af98ca647240d8e107b0302b21674a0033d342c5c631e77177be505a4a",
    ),
    "diurnal_clamp_1024": (
        diurnal_fleet_scenario,
        dict(n_servers=1024),
        "e753aec373cda7dca098aa53fd096d34dc561844703cffd6db68d4452cb39fd6",
    ),
    "class_default": (
        class_balanced_fleet_scenario,
        {},
        "8ac8b8dcdaec3afcafbe48e063d806946822862564be8b526557054d26597603",
    ),
    "class_custom": (
        class_balanced_fleet_scenario,
        dict(n_classes=5, servers_per_class=3, seed=777,
             vms_per_server=(1, 3), duration_s=1200.0),
        "dac71ef07fb174ca474810b8455b62c422a9bb70ca2104b324d35d232d4657ff",
    ),
    "class_clamp_2092": (
        class_balanced_fleet_scenario,
        dict(n_classes=4, servers_per_class=64, seed=2092),
        "57cb8c4a626b8abd5dcf81714c818a958ffa0796bcf10be450c16585101849dc",
    ),
    "drift_default": (
        model_drift_scenario,
        {},
        "7a1d020ee4d32747e8d543d71e0c0f91a15b8e7250efbe71b1c0fd27dbb40f29",
    ),
    "drift_custom": (
        model_drift_scenario,
        dict(n_classes=3, servers_per_class=5, seed=87_000,
             vms_per_server=(3, 7), duration_s=3600.0, ramp_start_s=500.0,
             ramp_delta_c=4.5, n_ramp_steps=3, ramp_step_s=400.0,
             shift_fraction=0.8, shift_start_s=1200.0, shift_window_s=300.0,
             second_wave_start_s=2400.0, second_wave_window_s=600.0),
        "fbe659bd7b0650a6f26f51d3f8adaaf3808c4fb753c13484ba753794b14544c8",
    ),
    "drift_one_wave": (
        model_drift_scenario,
        dict(n_classes=2, servers_per_class=4, seed=87_000,
             duration_s=3600.0, second_wave=False),
        "d7e0a319ce24a59049075502779aa9fd1466e8765451607547815d6c485bcdf1",
    ),
    "storm_default": (
        migration_storm_scenario,
        {},
        "96faa992880320418f2c268ac3b9c120e30e2db0f3474c8957e4f41746274707",
    ),
    "storm_custom": (
        migration_storm_scenario,
        dict(n_servers=10, seed=510, storm_start_s=30.0,
             storm_window_s=20.0, duration_s=300.0),
        "4c236c08559fa6444a9e538a74e8a3c891f2c26b0d53c95d56ff85554332d0ea",
    ),
    "cooling_default": (
        cooling_failure_scenario,
        {},
        "f7998fa3128b840143ca5c9d3d3e71f45dfaa4b5a7ce36c854aeddbffc9fcbcb",
    ),
    "cooling_custom": (
        cooling_failure_scenario,
        dict(n_servers=5, seed=1234, failure_time_s=200.0,
             failure_delta_c=5.0, recovery_time_s=800.0, duration_s=1000.0,
             hot_fraction=0.4),
        "896ae0bc440fc9a056e55c71e53b9732a2d7bd65d4b66dfe846fe14dbc586199",
    ),
    "cascade_default": (
        thermal_cascade_scenario,
        {},
        "78555a601588cddecc479ea681fe4d2d703045bc51667d4f09722dad0bb13748",
    ),
    "cascade_custom": (
        thermal_cascade_scenario,
        dict(n_servers=12, seed=4, duration_s=1200.0, ambient_c=26.5),
        "8f44be6753192a44bc3f3b06f4877621cc8f9d15c6808a275f5df4bcbb405d72",
    ),
    "flash_default": (
        flash_crowd_scenario,
        {},
        "67026b8f2c199e398384b43712adb710dc7faf86f3ff3aad28158fa34f0cac88",
    ),
    "flash_custom": (
        flash_crowd_scenario,
        dict(n_servers=10, seed=7, spike_time_s=300.0,
             duration_s=1200.0, hot_fraction=0.4),
        "1cc7c0ad146a8eba5f1bd5a9ebe6e437561e29cc828a61bd9ef0f6098632eda4",
    ),
}

#: ``ScenarioFuzzer().scenario(seed)`` digests for seeds 1..20.
FUZZ_DIGESTS = [
    "46de315453252f53e8f1fe91f96c357199cb9b94daa518b2240368889e138e2e",
    "6b52327f5fa2471e1ef18a2639110824a0d45b1c856695aa8ad544ee3d82953f",
    "4884b3ba03c2f678aa31ac0143320db8a540ba9226b6fec71ffa6e68dc965165",
    "88674c91da99737592d9a6d0cd4a050d59952c0c66b0e7191b6fae5c1b03a489",
    "59a1f4caff996697a62b5a7c9031f658acc75a58b1a13c730ab59cf25239f9b7",
    "f84f997e24b827226ee02550bb760e2fe33ae680182db91401d962330f284e6f",
    "41eee9297c710134e402ce0d9295eafac036ab134999b524394a6501aa96c919",
    "455fb8c4a547d10c759af6bdb64944a215d19927a585386844582d3528804144",
    "bbc482cca88798a7c4fcc01d5b037864f8f7292240065ba38bd2e6564a98aaea",
    "c07a4e795b93cf5adfab5a36e1273be0e9d78e1a6b27f9f507ff258da52c5b79",
    "efa86eb16ea5e1c7a9d5fda18d04ddfc080906efacd43f03710b01f621a7bec0",
    "66a05a5edfad43bbb8555ea6a8b0597c5fe89127d0b12c62a2ac37f270e88e30",
    "cc72657bece66156684a9018dc5e55cadcebeeef5db57d5c4c17e733472e2ce7",
    "1c73b7ea119ec55140dbf10e27e113ce0828adfb4dc8907bdbc9f1bda1b46651",
    "24ae97042c9bc2b2ccb06a1f825aaddf3f7d67eff6ea502a42de675efbb84207",
    "7cb54bdd5fddc592c4434cb6aa38d81aaa705043caa334af5e3b1da232bb467e",
    "82f75cb2570d3ad44447763eba33e28a703b75f3bf1d23c9ffd9dda328df2014",
    "5917273857b7aac08e98eb8895a63a1bb63726621ca4d1802d8518185e7654aa",
    "562e8b9be64278a8704e6e3846faf836ca1cc0d86c50afe9e6fe3086d95ae5a8",
    "b8d25bf54331387a7cf64165a6fa7d5aee267d8ab5996fb1042834eaf050fe03",
]


@pytest.mark.parametrize("case", sorted(FLEET_DIGESTS))
def test_fleet_scenario_digest(case):
    builder, kwargs, expected = FLEET_DIGESTS[case]
    assert _digest(builder(**kwargs)) == expected


@pytest.mark.parametrize(
    "builder, kwargs, servers",
    [
        (diurnal_fleet_scenario,
        dict(n_servers=1024), (588,)),
        (class_balanced_fleet_scenario,
         dict(n_classes=4, servers_per_class=64, seed=2092), (107, 251)),
    ],
)
def test_clamp_cases_fill_the_vcpu_limit(builder, kwargs, servers):
    scenario = builder(**kwargs)
    for i in servers:
        used = sum(vm.vcpus for vm in scenario.vm_specs[i])
        assert used == int(scenario.server_specs[i].vcpu_limit)


@pytest.mark.parametrize("seed", range(1, 21))
def test_fuzzer_corpus_digest(seed):
    assert _digest(ScenarioFuzzer().scenario(seed)) == FUZZ_DIGESTS[seed - 1]
