"""The fleet scenario library: one spec document per scenario.

Every fleet-scale scenario the repo ships is defined here once, as a
plain-dict document for :func:`repro.scenarios.spec.compile_spec`. Each
``*_spec`` function is bound, at the end of this module, to its
``*_scenario`` builder (``diurnal_fleet_scenario`` and the rest), which
takes the same parameters and returns the compiled
:class:`~repro.experiments.scenarios.FleetScenario`;
:mod:`repro.experiments.scenarios` serves the same seven builders.

No function here draws a random number. All sampling happens inside
the compiler, seeded from the document's ``seed``, on streams the
document names: server hardware on ``hardware`` (and ``classes`` for a
class-balanced fleet), each server's VMs on ``vms/{i}``, flavor-shift
arrivals on ``flavor-shift/{i}``. Golden digests of the compiled
scenarios in ``tests/scenarios/test_scenario_golden.py`` pin every
document's output bit for bit.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.errors import ScenarioSpecError
from repro.experiments.scenarios import (
    CORE_OPTIONS,
    FAN_COUNT_OPTIONS,
    GHZ_OPTIONS,
    MEMORY_OPTIONS,
    FleetScenario,
)
from repro.scenarios.spec import compile_spec


def _commodity_hardware() -> dict[str, Any]:
    """Randomized commodity hardware: option-set choices and a fan speed."""
    return {
        "cpu_cores": {"choice": list(CORE_OPTIONS)},
        "ghz_per_core": {"choice": list(GHZ_OPTIONS)},
        "memory_gb": {"choice": list(MEMORY_OPTIONS)},
        "fan_count": {"choice": list(FAN_COUNT_OPTIONS)},
        "fan_speed": {"uniform": [0.5, 0.9]},
    }


def _diurnal_room() -> dict[str, Any]:
    """The room temperature's daily sinusoidal drift."""
    return {"sinusoidal": {"mean": 22.0, "amplitude": 2.0, "period": 86400.0}}


def _diurnal_placement(vms_per_server: tuple[int, int]) -> dict[str, Any]:
    """Every server's diurnal VM mix, clamped to its vCPU limit.

    Request-serving (periodic, day-scale period), batch (constant) and
    cache-warming (ramp) VMs. The clamp only engages on draws admission
    would reject outright (small cores, many fat VMs), which is what
    lets the fleets scale to 1024+ servers.
    """
    lo, hi = vms_per_server
    if not 1 <= lo <= hi:
        raise ScenarioSpecError(f"invalid vms_per_server {vms_per_server}")
    return {
        "servers": "all",
        "clamp_vcpus": True,
        "vms": [{
            "name": "vm-{server_index:03d}-{vm_index}",
            "count": {"randint": [lo, hi]},
            "tasks": [{"one_of": [
                {"periodic": {
                    "mean": {"uniform": [0.25, 0.65]},
                    "amplitude": {"uniform": [0.1, 0.3]},
                    "period": 86400.0,
                    "phase": {"uniform": [0.0, 86400.0]},
                }},
                {"constant": {"uniform": [0.2, 0.8]}},
                {"ramp": {
                    "start_level": {"uniform": [0.05, 0.3]},
                    "end_level": {"uniform": [0.4, 0.9]},
                    "ramp": {"uniform": [600.0, 3600.0]},
                }},
            ]}],
            "vcpus": {"randint": [1, 4]},
            "memory_gb": {"uniform": [2.0, 8.0]},
        }],
    }


def _hot_vm_doc(level: tuple[float, float]) -> dict[str, Any]:
    """A heavy 4-vCPU VM: one memory draw, then four task-level draws."""
    return {
        "name": "hot-{server_index:03d}-{vm_index}",
        "vcpus": 4,
        "memory_gb": {"uniform": [4.0, 6.0]},
        "tasks": [{"constant": {"uniform": [level[0], level[1]]}, "count": 4}],
    }


def _light_vm_doc() -> dict[str, Any]:
    """Background load for a spare server — plenty of headroom left."""
    return {
        "name": "light-{server_index:03d}",
        "vcpus": 2,
        "memory_gb": {"uniform": [2.0, 4.0]},
        "tasks": [{"constant": {"uniform": [0.15, 0.3]}}],
    }


def diurnal_fleet_spec(
    n_servers: int = 128,
    seed: int = 90_000,
    vms_per_server: tuple[int, int] = (2, 5),
    duration_s: float = 7200.0,
) -> dict[str, Any]:
    """A large fleet riding a diurnal load and cooling cycle.

    Every server has randomized commodity hardware and hosts a mix of
    request-serving, batch and cache-warming VMs; the room temperature
    follows a sinusoidal daily drift, so both load and cooling move the
    way a real datacenter's do over a day.
    """
    if n_servers < 1:
        raise ScenarioSpecError(f"n_servers must be >= 1, got {n_servers}")
    return {
        "name": f"diurnal-fleet-{n_servers}",
        "seed": seed,
        "duration": duration_s,
        "servers": [dict(_commodity_hardware(), count=n_servers)],
        "placements": [_diurnal_placement(vms_per_server)],
        "environment": _diurnal_room(),
    }


def class_balanced_fleet_spec(
    n_classes: int = 16,
    servers_per_class: int = 8,
    seed: int = 92_000,
    vms_per_server: tuple[int, int] = (2, 5),
    duration_s: float = 3600.0,
) -> dict[str, Any]:
    """A fleet built from a fixed number of hardware classes.

    Real fleets buy servers in SKU generations: many hosts share one
    hardware class. This fleet takes ``n_classes`` distinct (cores,
    clock, memory, fans) combinations and ``servers_per_class`` servers
    of each — the shape the per-class trainer
    (:func:`repro.training.fleet_trainer.train_fleet_registry`) trains
    one model per class from. VM mixes and fan speeds vary per server;
    the room rides the diurnal cycle.
    """
    if n_classes < 1:
        raise ScenarioSpecError(f"n_classes must be >= 1, got {n_classes}")
    if servers_per_class < 1:
        raise ScenarioSpecError(
            f"servers_per_class must be >= 1, got {servers_per_class}"
        )
    return {
        "name": f"class-balanced-fleet-{n_classes}x{servers_per_class}",
        "seed": seed,
        "duration": duration_s,
        "servers": [dict(_commodity_hardware(), classes=n_classes,
                         each=servers_per_class)],
        "placements": [_diurnal_placement(vms_per_server)],
        "environment": _diurnal_room(),
    }


def model_drift_spec(
    n_classes: int = 4,
    servers_per_class: int = 8,
    seed: int = 92_000,
    vms_per_server: tuple[int, int] = (2, 5),
    duration_s: float = 7200.0,
    ramp_start_s: float | None = None,
    ramp_delta_c: float = 6.0,
    n_ramp_steps: int = 6,
    ramp_step_s: float | None = None,
    shift_fraction: float = 0.5,
    shift_start_s: float | None = None,
    shift_window_s: float | None = None,
    second_wave_start_s: float | None = None,
    second_wave_window_s: float | None = None,
    second_wave: bool = True,
) -> dict[str, Any]:
    """A regime shift that silently degrades a frozen ψ_stable model.

    The fleet is :func:`class_balanced_fleet_spec` at the same ``seed``,
    so its hardware classes and initial placements match that campaign
    **bit for bit**, and a registry trained on it serves this fleet with
    matching class keys. Then the regime it was trained in goes away:

    * a **seasonal ambient ramp**: the room steps from 22 °C up by
      ``ramp_delta_c`` in ``n_ramp_steps`` increments starting at
      ``ramp_start_s`` — δ_env leaves the training range, pushing the
      SVR into extrapolation;
    * a **VM-flavor shift**: ``shift_fraction`` of every class's servers
      receive a heavier new-generation VM (staggered over
      ``shift_window_s`` from ``shift_start_s``), changing the ξ_VM mix
      the model was fitted on; an optional **second wave** lands after a
      drift-aware lifecycle would have retrained, so retrained-vs-frozen
      forecast quality shows up in the post-wave retarget transients.

    The flavor-shift servers are picked on the compiled base fleet:
    only servers whose initial placement leaves static headroom for
    every wave (memory is a hard admission constraint), so the scenario
    can never capacity-fault mid-run. Each gets one ``arrival`` event
    per wave, on stream ``flavor-shift/{i}``.

    Event timing defaults scale with ``duration_s`` (ramp from 1/6
    through ~2/3 of the run, first wave at 1/3, second wave at 3/4), so
    shortened runs keep the same drama; pass explicit times to override,
    or ``second_wave=False`` to drop the post-retrain wave. The second
    wave may not start before the first one ends.
    """
    if ramp_start_s is None:
        ramp_start_s = duration_s / 6.0
    if ramp_step_s is None:
        ramp_step_s = duration_s / 12.0
    if shift_start_s is None:
        shift_start_s = duration_s / 3.0
    if shift_window_s is None:
        shift_window_s = duration_s / 12.0
    if second_wave_window_s is None:
        second_wave_window_s = duration_s / 12.0
    if not second_wave:
        second_wave_start_s = None  # the off-switch wins over explicit times
    elif second_wave_start_s is None:
        second_wave_start_s = duration_s * 0.75
    if not 0.0 <= shift_fraction <= 1.0:
        raise ScenarioSpecError(
            f"shift_fraction must be in [0, 1], got {shift_fraction}"
        )
    if not 0.0 < ramp_start_s < duration_s:
        raise ScenarioSpecError(
            f"ramp_start_s must fall inside the run, got {ramp_start_s}"
        )
    last_ramp_step_s = ramp_start_s + (n_ramp_steps - 1) * ramp_step_s
    if last_ramp_step_s >= duration_s:
        raise ScenarioSpecError(
            f"last ambient ramp step at {last_ramp_step_s}s would never "
            f"apply inside the {duration_s}s run"
        )
    if not 0.0 < shift_start_s < duration_s:
        raise ScenarioSpecError(
            f"shift_start_s must fall inside the run, got {shift_start_s}"
        )
    if shift_window_s < 0 or second_wave_window_s < 0:
        raise ScenarioSpecError(
            "wave windows must be >= 0, got "
            f"shift={shift_window_s}, second={second_wave_window_s}"
        )
    if shift_start_s + shift_window_s >= duration_s:
        raise ScenarioSpecError(
            f"flavor-shift wave [{shift_start_s}, "
            f"{shift_start_s + shift_window_s}] must finish strictly inside "
            f"the {duration_s}s run — late arrivals would silently never land"
        )
    waves = [(shift_start_s, shift_window_s)]
    if second_wave_start_s is not None:
        if not shift_start_s < second_wave_start_s < duration_s:
            raise ScenarioSpecError(
                "second_wave_start_s must follow shift_start_s inside the run"
            )
        if second_wave_start_s < shift_start_s + shift_window_s:
            raise ScenarioSpecError(
                f"second_wave_start_s={second_wave_start_s} precedes the end "
                f"of the first wave at {shift_start_s + shift_window_s}s; "
                "the waves would overlap"
            )
        if second_wave_start_s + second_wave_window_s >= duration_s:
            raise ScenarioSpecError(
                f"second wave [{second_wave_start_s}, "
                f"{second_wave_start_s + second_wave_window_s}] must finish "
                f"strictly inside the {duration_s}s run"
            )
        waves.append((second_wave_start_s, second_wave_window_s))

    fleet = class_balanced_fleet_spec(
        n_classes, servers_per_class, seed, vms_per_server, duration_s
    )
    base = compile_spec(fleet)
    n_shift = round(servers_per_class * shift_fraction)
    shifted = []
    for i, (server, vms) in enumerate(zip(base.server_specs, base.vm_specs)):
        free_memory, free_vcpus = server.static_headroom(vms)
        if (
            i % servers_per_class < n_shift
            and 2 * len(waves) <= free_vcpus
            and 6.0 * len(waves) + 1.0 <= free_memory
        ):
            shifted.append(i)
    arrivals = [
        {
            "at": start_s + window_s * (rank / max(len(shifted) - 1, 1)),
            "arrival": {
                "servers": {"indices": [i]},
                "stream": "flavor-shift/{server_index}",
                "vm": {
                    "name": f"shift-{{server_index:03d}}-w{wave}",
                    "vcpus": 2,
                    "memory_gb": {"uniform": [3.0, 6.0]},
                    "tasks": [{"constant": {"uniform": [0.55, 0.8]},
                               "count": 2}],
                },
            },
        }
        for rank, i in enumerate(shifted)
        for wave, (start_s, window_s) in enumerate(waves)
    ]
    # Time order; the sort is stable, so a server's waves keep their
    # draw order on its stream and ties keep server order.
    arrivals.sort(key=lambda event: event["at"])
    ramp = {"delta_c": ramp_delta_c, "steps": n_ramp_steps,
            "spacing": ramp_step_s}
    return dict(
        fleet,
        name=f"model-drift-{n_classes}x{servers_per_class}",
        servers_per_rack=max(1, (n_classes * servers_per_class) // 4),
        environment={"constant": 22.0},
        timeline=[{"at": ramp_start_s, "ambient_ramp": ramp}, *arrivals],
    )


def migration_storm_spec(
    n_servers: int = 64,
    seed: int = 91_000,
    storm_start_s: float = 600.0,
    storm_window_s: float = 300.0,
    duration_s: float = 1800.0,
) -> dict[str, Any]:
    """A consolidation wave: half the fleet evacuates one hot VM each.

    The first half of the fleet runs loaded (each with one dedicated
    migrant VM plus background load); the second half idles. During
    ``[storm_start, storm_start + storm_window]`` every loaded server
    live-migrates its migrant to its idle partner — a burst of
    simultaneous migrations stressing event handling, VMM overhead
    accounting, and fleet-state rebuilds.
    """
    if n_servers < 2 or n_servers % 2:
        raise ScenarioSpecError(
            f"n_servers must be an even number >= 2, got {n_servers}"
        )
    if storm_window_s <= 0:
        raise ScenarioSpecError(
            f"storm_window_s must be > 0, got {storm_window_s}"
        )
    half = n_servers // 2
    return {
        "name": f"migration-storm-{n_servers}",
        "seed": seed,
        "duration": duration_s,
        "servers": [dict(_commodity_hardware(), count=n_servers)],
        "placements": [{
            "servers": {"range": [0, half]},
            "vms": [
                {
                    "name": "migrant-{server_index:03d}",
                    "vcpus": 2,
                    "memory_gb": {"uniform": [4.0, 8.0]},
                    "tasks": [{"constant": {"uniform": [0.7, 0.95]}}],
                },
                {
                    "name": "base-{server_index:03d}",
                    "vcpus": 2,
                    "memory_gb": {"uniform": [4.0, 12.0]},
                    "tasks": [{"constant": {"uniform": [0.3, 0.6]}}],
                },
            ],
        }],
        "environment": {"constant": 22.0},
        "timeline": [
            {
                "at": storm_start_s + storm_window_s * (i / max(half - 1, 1)),
                "migrate": {"vm": f"migrant-{i:03d}",
                            "to": f"server-{i + half:03d}"},
            }
            for i in range(half)
        ],
    }


# -- control-plane stress scenarios -------------------------------------------
#
# The workloads the closed-loop thermal control plane (repro.control) must
# survive: each manufactures a fleet where doing nothing leaves sustained
# hotspots while feasible migrations exist that clear them. They share one
# shape — a minority of "hot" servers driven near the thermal limit plus a
# majority of lightly loaded spares with the memory/vCPU headroom to absorb
# evicted VMs — on the catalog's one-SKU ``stress`` hardware, so the control
# loop's decisions (not hardware diversity) drive the outcome.


def cooling_failure_spec(
    n_servers: int = 32,
    seed: int = 93_000,
    failure_time_s: float = 600.0,
    failure_delta_c: float = 8.0,
    recovery_time_s: float | None = None,
    duration_s: float = 3600.0,
    hot_fraction: float = 0.25,
) -> dict[str, Any]:
    """A CRAC step failure: the cold aisle jumps ``failure_delta_c`` mid-run.

    The hot fraction of the fleet runs close enough to the thermal limit
    that the warmer room pushes it over (~70 °C at the 22 °C set-point,
    over 75 °C after an 8 °C step); the spare servers stay far below
    it. Without intervention the hot servers are sustained hotspots for
    the rest of the run; shedding one or two VMs each (onto spares with
    ample headroom) clears them — exactly the mitigation a
    forecast-driven control loop should discover.
    """
    if n_servers < 2:
        raise ScenarioSpecError(f"n_servers must be >= 2, got {n_servers}")
    if not 0.0 < hot_fraction < 1.0:
        raise ScenarioSpecError(
            f"hot_fraction must be in (0, 1), got {hot_fraction}"
        )
    if not 0.0 < failure_time_s < duration_s:
        raise ScenarioSpecError(
            f"failure_time_s must fall inside the run, got {failure_time_s}"
        )
    if recovery_time_s is not None and recovery_time_s <= failure_time_s:
        raise ScenarioSpecError("recovery_time_s must follow failure_time_s")
    n_hot = max(1, int(n_servers * hot_fraction))
    timeline: list[dict[str, Any]] = [
        {"at": failure_time_s, "cooling_derate": failure_delta_c},
    ]
    if recovery_time_s is not None:
        timeline.append({"at": recovery_time_s, "ambient_step": 22.0})
    return {
        "name": f"cooling-failure-{n_servers}",
        "seed": seed,
        "duration": duration_s,
        "servers_per_rack": max(1, n_servers // 4),
        "servers": [{"type": "stress", "count": n_servers}],
        "placements": [
            {
                "servers": {"range": [0, n_hot]},
                "vms": [dict(_hot_vm_doc(level=(0.58, 0.68)), count=4)],
            },
            {
                "servers": {"range": [n_hot, n_servers]},
                "vms": [_light_vm_doc()],
            },
        ],
        "environment": {"constant": 22.0},
        "timeline": timeline,
    }


def thermal_cascade_spec(
    n_servers: int = 32,
    seed: int = 94_000,
    duration_s: float = 3600.0,
    ambient_c: float = 24.0,
) -> dict[str, Any]:
    """A hot row: one rack packed with heavy tenants, the rest idle-ish.

    Models the classic cascade risk — recirculation and packed placement
    leave a whole row running hot while neighbouring racks idle. The
    first rack's servers each host four heavy VMs (sustained hotspots at
    ``ambient_c``); every other rack has headroom. The control plane
    must spread the row's load across the cold racks before the row
    saturates.
    """
    if n_servers < 8:
        raise ScenarioSpecError(f"n_servers must be >= 8, got {n_servers}")
    servers_per_rack = max(2, n_servers // 4)
    return {
        "name": f"thermal-cascade-{n_servers}",
        "seed": seed,
        "duration": duration_s,
        "servers_per_rack": servers_per_rack,
        "servers": [{"type": "stress", "count": n_servers}],
        "placements": [
            {
                "servers": {"range": [0, servers_per_rack]},
                "vms": [dict(_hot_vm_doc(level=(0.78, 0.88)), count=4)],
            },
            {
                "servers": {"range": [servers_per_rack, n_servers]},
                "vms": [_light_vm_doc()],
            },
        ],
        "environment": {"constant": ambient_c},
    }


def flash_crowd_spec(
    n_servers: int = 32,
    seed: int = 95_000,
    spike_time_s: float = 600.0,
    duration_s: float = 3600.0,
    hot_fraction: float = 0.25,
) -> dict[str, Any]:
    """A flash crowd: a burst of heavy VMs lands on the front-end pool.

    Every server starts lightly loaded. At ``spike_time_s`` the first
    ``hot_fraction`` of the fleet each receives four heavy arrivals,
    10 s apart (the load balancer pinning a crowd to the warm pool),
    driving those hosts toward the limit while the rest of the fleet
    keeps its headroom. Unlike the CRAC failure the room stays cold —
    only load moves — so mitigation must rebalance VMs, not wait out
    the weather.
    """
    if n_servers < 2:
        raise ScenarioSpecError(f"n_servers must be >= 2, got {n_servers}")
    if not 0.0 < hot_fraction < 1.0:
        raise ScenarioSpecError(
            f"hot_fraction must be in (0, 1), got {hot_fraction}"
        )
    if not 0.0 < spike_time_s < duration_s:
        raise ScenarioSpecError(
            f"spike_time_s must fall inside the run, got {spike_time_s}"
        )
    n_hot = max(1, int(n_servers * hot_fraction))
    return {
        "name": f"flash-crowd-{n_servers}",
        "seed": seed,
        "duration": duration_s,
        "servers_per_rack": max(1, n_servers // 4),
        "servers": [{"type": "stress", "count": n_servers}],
        "placements": [
            {"servers": "all", "vms": [_light_vm_doc()]},
        ],
        "environment": {"constant": 22.0},
        "timeline": [
            {
                "at": spike_time_s,
                "arrival": {
                    "servers": {"range": [0, n_hot]},
                    "count": 4,
                    "spacing": 10.0,
                    "vm": _hot_vm_doc(level=(0.78, 0.88)),
                },
            },
        ],
    }


# -- the fleet builders -------------------------------------------------------


def _compiled(
    spec: Callable[..., dict[str, Any]],
) -> Callable[..., FleetScenario]:
    """The ``*_scenario`` builder of ``spec``: its document, compiled.

    The builder takes exactly the spec's parameters (it carries the
    spec's signature), so each scenario's parameters are written once.
    """

    def build(*args: Any, **kwargs: Any) -> FleetScenario:
        return compile_spec(spec(*args, **kwargs))

    name = spec.__name__.removesuffix("_spec") + "_scenario"
    build.__name__ = build.__qualname__ = name
    build.__doc__ = f"Compile :func:`{__name__}.{spec.__name__}`."
    build.__signature__ = inspect.signature(spec).replace(  # type: ignore[attr-defined]
        return_annotation=FleetScenario
    )
    return build


diurnal_fleet_scenario = _compiled(diurnal_fleet_spec)
class_balanced_fleet_scenario = _compiled(class_balanced_fleet_spec)
model_drift_scenario = _compiled(model_drift_spec)
migration_storm_scenario = _compiled(migration_storm_spec)
cooling_failure_scenario = _compiled(cooling_failure_spec)
thermal_cascade_scenario = _compiled(thermal_cascade_spec)
flash_crowd_scenario = _compiled(flash_crowd_spec)
